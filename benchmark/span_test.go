package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A hand-built tree: self time is duration minus the covered child time.
//
//	0 root      [0, 100)
//	1   child   [10, 30)
//	2   child   [20, 50)   overlaps 1: together they cover [10, 50)
//	3     grand [25, 35)
//	4   child   [90, 120)  sticks out of the root: only [90, 100) counts
//	5 other root [200, 260) without children
func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "grand", Start: 25, End: 35, Parent: 2},
		{Name: "late", Start: 90, End: 120, Parent: 0},
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	want := []int64{
		100 - (40 + 10), // root: [10,50) and [90,100) are covered
		20,              // a
		30 - 10,         // b minus grand
		10,              // grand
		30,              // late: its own duration, clipping is the parent's business
		60,              // other
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []Span{
		{Name: "probe", Start: 0, End: 4000, Parent: -1, Lane: 2, Calls: 20, OK: true},
		{Name: "probe", Start: 1000, End: 3000, Parent: 0, Lane: 2, Calls: 20, OK: true},
	}
	if err := WriteChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 2 || file.TraceEvents[1].Ts != 1 || file.TraceEvents[1].Dur != 2 || file.TraceEvents[0].Ph != "X" {
		t.Fatalf("unexpected events: %+v", file.TraceEvents)
	}
	if self := file.TraceEvents[0].Args["self_us"]; self != 2.0 {
		t.Fatalf("parent self_us = %v, want 2", self)
	}
}
