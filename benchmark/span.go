package main

import (
	"encoding/json"
	"os"
	"sort"
)

// Span is one timed interval recorded by the benchmark around a call into the
// program: a whole transaction in a client loop, or a batch of probe calls.
// Times are nanoseconds since the recorder's epoch.
type Span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32 // index of the causing span in the same slice, -1 for a root
	Lane   int32 // client id, or the probe's lane
	Calls  int32 // calls into the program the span covers
	OK     bool  // the transaction committed (always true for probe spans)
}

// SelfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children count once
// and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format; ts and
// dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as Chrome-trace JSON (load it in
// chrome://tracing or Perfetto). Spans with children carry their self time.
func WriteChromeTrace(path string, spans []Span) error {
	self := SelfTimes(spans)
	hasChild := make(map[int32]bool)
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		args := map[string]any{"ok": s.OK, "calls": s.Calls}
		if hasChild[int32(i)] {
			args["self_us"] = float64(self[i]) / 1e3
		}
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
