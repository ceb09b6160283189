package workload

import (
	"math/rand"
	"sync/atomic"
)

// Hotspot generates values in [0, items) where a hot window of the key space
// receives a (typically much larger) fraction of the draws — the simplest
// model of a skewed working set (a hot warehouse, a viral account). The hot
// window can move while concurrent workers keep drawing (Shift).
type Hotspot struct {
	items         int64
	hotItems      int64
	hotOpFraction float64

	// hotStart is the first value of the hot window [hotStart,
	// hotStart+hotItems). Atomic: benchmark drivers move it mid-run while
	// worker goroutines draw.
	hotStart atomic.Int64
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
