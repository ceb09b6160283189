package main

import (
	"math"
	"math/bits"
)

// Hist is a log-bucketed latency histogram over nanosecond samples: 128
// sub-buckets per power of two, so a reported quantile is within 1/128
// (0.8 %) of the sample at that rank. The count is exact, Record
// never allocates, and histograms kept per client merge into one.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per power of two
	// Values up to 2^41 ns (about 36 minutes) keep their relative error;
	// larger ones land in the last bucket.
	histMaxExp  = 41 - histSubBits
	histBuckets = (histMaxExp + 2) * histSub
)

// bucketOf maps a sample to its bucket: values below 2·histSub are exact,
// larger ones keep their top histSubBits+1 significant bits.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 2*histSub {
		return int(v)
	}
	exp := bits.Len64(v) - (histSubBits + 1)
	if exp > histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// bucketRange is the half-open range [lo, lo+width) of values a bucket holds.
func bucketRange(b int) (lo, width float64) {
	if b < 2*histSub {
		return float64(b), 1
	}
	exp := b/histSub - 1
	return float64(uint64(histSub+b%histSub) << uint(exp)), float64(uint64(1) << uint(exp))
}

// Record adds one sample.
func (h *Hist) Record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	if ns > 0 {
		h.sum += uint64(ns)
	}
}

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count is the exact number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Mean is the exact mean of the samples in nanoseconds (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) in nanoseconds:
// the sample of rank ceil(q·n), placed inside its bucket as if the bucket's
// samples were spread evenly over its range. It is 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := rankOf(q, h.n)
	var seen uint64
	for b, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketRange(b)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0 // not reached: the counts sum to n
}

// rankOf is the nearest-rank position ceil(q·n) in 1..n. The small slack keeps
// a product such as 0.99999·1e6, which floating point puts a hair above the
// integer, at that integer.
func rankOf(q float64, n uint64) uint64 {
	rank := uint64(math.Ceil(q*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// tailLadder is the percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// HighestPercentile returns the highest percentile of tailLadder that still
// has at least minBeyond of n samples beyond its nearest-rank position, and
// false when not even the median has.
func HighestPercentile(n, minBeyond uint64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n > 0 && n-rankOf(p/100, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}
