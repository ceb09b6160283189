package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleQuantile is the nearest-rank quantile of a sorted slice.
func oracleQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1])
}

func checkAgainstOracle(t *testing.T, name string, samples []int64) {
	t.Helper()
	var h Hist
	for _, s := range samples {
		h.Record(s)
	}
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("%s: count %d, want %d", name, h.Count(), len(samples))
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sum := 0.0
	for _, s := range sorted {
		sum += float64(s)
	}
	if mean := sum / float64(len(sorted)); math.Abs(h.Mean()-mean) > 1e-6*mean+1e-9 {
		t.Errorf("%s: mean %v, want %v", name, h.Mean(), mean)
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := h.Quantile(q), oracleQuantile(sorted, q)
		if math.Abs(got-want) > 0.01*want+1 {
			t.Errorf("%s: q=%v got %v, want %v within 1%%", name, q, got, want)
		}
	}
}

func TestHistMatchesSortedSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	logUniform := make([]int64, 50000)
	for i := range logUniform {
		logUniform[i] = int64(math.Exp(rng.Float64() * math.Log(1e10))) // 1 ns .. 10 s
	}
	exponential := make([]int64, 50000)
	for i := range exponential {
		exponential[i] = int64(rng.ExpFloat64() * 25000)
	}
	allEqual := make([]int64, 1000)
	for i := range allEqual {
		allEqual[i] = 123456
	}
	twoPoint := make([]int64, 1000)
	for i := range twoPoint {
		twoPoint[i] = 100
		if i%2 == 1 {
			twoPoint[i] = 1e9
		}
	}
	small := []int64{0, 1, 2, 3, 127, 128, 255, 256, 257, 511, 512}
	for name, samples := range map[string][]int64{
		"log-uniform": logUniform, "exponential": exponential, "all-equal": allEqual,
		"two-point": twoPoint, "single": {98765}, "bucket-edges": small,
	} {
		checkAgainstOracle(t, name, samples)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 1<<13, 1 << 40, 1 << 41, 1 << 62} {
		b := bucketOf(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d (of %d buckets)", v, b, prev, histBuckets)
		}
		if lo, width := bucketRange(b); v < 1<<41 && (float64(v) < lo || float64(v) >= lo+width) {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
		prev = b
	}
}

func TestHistMergeEqualsRecordingEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all Hist
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 40000)
		all.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from one that recorded every sample")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(31415) }); allocs != 0 {
		t.Fatalf("Record allocates %v times per call", allocs)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
		ok   bool
	}{
		{1, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {1000000, 99.999, true},
	} {
		got, ok := HighestPercentile(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got %v %v, want %v %v", c.n, got, ok, c.want, c.ok)
		}
		// Oracle in whole numbers: the samples of a sorted slice of n beyond
		// the nearest rank ceil(p·n/100), with p in thousandths of a percent.
		if ok {
			milli := uint64(math.Round(got * 1000))
			rank := (c.n*milli + 99999) / 100000
			if beyond := c.n - rank; beyond < 10 {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}
