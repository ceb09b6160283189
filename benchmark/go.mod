module dora/benchmark

go 1.24

require dora v0.0.0

replace dora => ../
