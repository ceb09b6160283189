package workload

import (
	"math/rand"
	"testing"
)

func TestHotspotBoundsAndSkew(t *testing.T) {
	const items = 100
	h := NewHotspot(items, 0.1, 0.9)
	rng := rand.New(rand.NewSource(2))
	hot := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		v := h.Next(rng)
		if v < 0 || v >= items {
			t.Fatalf("draw %d out of [0,%d)", v, items)
		}
		if v < 10 {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %.3f, want ~0.9", frac)
	}
}

// hotFraction counts the share of draws landing inside [start, start+n).
func hotFraction(h *Hotspot, rng *rand.Rand, start, n int64, draws int) float64 {
	in := 0
	for i := 0; i < draws; i++ {
		v := h.Next(rng)
		if v < 0 || v >= 100 {
			return -1
		}
		if v >= start && v < start+n {
			in++
		}
	}
	return float64(in) / float64(draws)
}

func TestHotspotShiftMovesHotSet(t *testing.T) {
	const items = 100
	h := NewHotspot(items, 0.1, 0.9)
	rng := rand.New(rand.NewSource(3))
	if f := hotFraction(h, rng, 0, 10, 10000); f < 0.85 || f > 0.95 {
		t.Fatalf("initial hot window draws %.3f, want ~0.9", f)
	}
	h.Shift(60)
	if start, n := h.HotRange(); start != 60 || n != 10 {
		t.Fatalf("HotRange = [%d,+%d), want [60,+10)", start, n)
	}
	// The old window cools down and the new one heats up.
	if f := hotFraction(h, rng, 0, 10, 10000); f > 0.05 {
		t.Fatalf("old hot window still draws %.3f after Shift", f)
	}
	if f := hotFraction(h, rng, 60, 10, 10000); f < 0.85 || f > 0.95 {
		t.Fatalf("new hot window draws %.3f, want ~0.9", f)
	}
	// Shifts clamp so the window stays inside [0, items).
	h.Shift(99)
	if start, _ := h.HotRange(); start != items-10 {
		t.Fatalf("Shift(99) start = %d, want clamped %d", start, items-10)
	}
}
