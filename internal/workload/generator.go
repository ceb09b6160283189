package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Zipfian generates zipf-distributed values in [0, items): value 0 is the
// hottest, with popularity falling off as rank^-theta. It uses the standard
// "Quickly Generating Billion-Record Synthetic Databases" (Gray et al.)
// rejection-free construction that YCSB-style benchmark drivers use for
// skewed key selection. The generator is immutable after construction, so
// one instance may be shared by concurrent workers, each drawing through its
// own *rand.Rand.
type Zipfian struct {
	items        int64
	theta        float64
	alpha        float64
	zetaN, zeta2 float64
	eta          float64
}

// ZipfianTheta is the skew constant YCSB uses by default: roughly, the
// hottest ~20% of items draw ~80% of the accesses.
const ZipfianTheta = 0.99

// NewZipfian builds a zipfian generator over [0, items) with the given theta
// in (0, 1). Larger theta means more skew.
func NewZipfian(items int64, theta float64) *Zipfian {
	z := &Zipfian{items: items, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetaN = zetaStatic(items, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(items), 1-theta)) / (1 - z.zeta2/z.zetaN)
	return z
}

// zetaStatic computes the zeta constant sum_{i=1..n} 1/i^theta.
func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next zipf-distributed value in [0, items).
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.items {
		v = z.items - 1
	}
	return v
}

// Hotspot generates values in [0, items) where a hot window of the key space
// receives a (typically much larger) fraction of the draws — the simplest
// model of a skewed working set (a hot warehouse, a viral account). Unlike
// Zipfian, the hot window can move while concurrent workers keep drawing:
// Shift relocates it immediately and ShiftAt schedules relocations against a
// run's progress.
type Hotspot struct {
	items         int64
	hotItems      int64
	hotOpFraction float64

	// hotStart is the first value of the hot window [hotStart,
	// hotStart+hotItems). Atomic: benchmark drivers move it mid-run while
	// worker goroutines draw.
	hotStart atomic.Int64

	mu       sync.Mutex
	schedule []hotShift // sorted by fraction, applied by Advance
}

// hotShift is one scheduled hot-window relocation.
type hotShift struct {
	fraction float64
	start    int64
}

// NewHotspot builds a hotspot generator: hotSetFraction of [0, items) is hot
// (initially the lowest values) and receives hotOpFraction of the draws,
// uniformly within each region.
func NewHotspot(items int64, hotSetFraction, hotOpFraction float64) *Hotspot {
	hot := int64(float64(items) * hotSetFraction)
	if hot < 1 {
		hot = 1
	}
	if hot > items {
		hot = items
	}
	return &Hotspot{items: items, hotItems: hot, hotOpFraction: hotOpFraction}
}

// Next draws the next value in [0, items).
func (h *Hotspot) Next(rng *rand.Rand) int64 {
	start := h.hotStart.Load()
	if rng.Float64() < h.hotOpFraction || h.hotItems == h.items {
		return start + rng.Int63n(h.hotItems)
	}
	// Cold draw: uniform over [0, items) minus the hot window.
	v := rng.Int63n(h.items - h.hotItems)
	if v >= start {
		v += h.hotItems
	}
	return v
}

// HotRange returns the current hot window [start, start+n).
func (h *Hotspot) HotRange() (start, n int64) {
	return h.hotStart.Load(), h.hotItems
}

// Shift moves the hot window so it starts at newStart (clamped to keep the
// window inside [0, items)). Safe against concurrent Next calls.
func (h *Hotspot) Shift(newStart int64) {
	if newStart < 0 {
		newStart = 0
	}
	if newStart > h.items-h.hotItems {
		newStart = h.items - h.hotItems
	}
	h.hotStart.Store(newStart)
}

// ShiftAt schedules a Shift to newStart once the run's progress reaches the
// given fraction in [0, 1]. The driver reports progress with Advance.
func (h *Hotspot) ShiftAt(fraction float64, newStart int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.schedule = append(h.schedule, hotShift{fraction: fraction, start: newStart})
	sort.SliceStable(h.schedule, func(i, j int) bool {
		return h.schedule[i].fraction < h.schedule[j].fraction
	})
}

// Advance reports the run's progress as a fraction in [0, 1] and applies every
// scheduled shift that has come due, returning true if the hot window moved.
func (h *Hotspot) Advance(progress float64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	moved := false
	for len(h.schedule) > 0 && h.schedule[0].fraction <= progress {
		h.Shift(h.schedule[0].start)
		h.schedule = h.schedule[1:]
		moved = true
	}
	return moved
}
