package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/workload"
)

// runner drives one loaded workload through its run segments. The client
// generators are seeded once and keep drawing across segments, so a seed
// fixes the whole input sequence of an invocation.
type runner struct {
	spec    spec
	bench   *harness.Bench
	mix     workload.Mix
	kindIdx map[string]int
	rngs    []*rand.Rand
	// acked counts the transactions the clients saw acknowledged in every
	// segment so far, including ones that completed after a segment's
	// deadline and are in no statistic.
	acked uint64
}

func newRunner(s spec, b *harness.Bench, seed int64) *runner {
	r := &runner{spec: s, bench: b, mix: b.Driver.Mix(), kindIdx: map[string]int{}}
	for i, k := range r.mix {
		r.kindIdx[k.Name] = i
	}
	for c := 0; c < numClients; c++ {
		r.rngs = append(r.rngs, rand.New(rand.NewSource(seed+int64(c)*7919)))
	}
	return r
}

// spanCap is the span storage a client reserves before a traced segment, so
// that recording a span does not allocate: room for 5 s at 50 000 txn/s.
const spanCap = 1 << 18

// clientStats is what one client records during one segment. Each client owns
// its value; nothing on the transaction path is written by two goroutines.
type clientStats struct {
	windows     []uint64 // transactions committed in each window
	lat         Hist     // latency of every committed transaction
	attempted   uint64
	committed   uint64
	inputAborts uint64
	failed      uint64
	acked       uint64
	causes      map[string]uint64
	busy        time.Duration
	unhealthy   bool
	spans       []Span
	kinds       []Hist
}

// window is one slice of a segment, all clients merged.
type window struct {
	dur       time.Duration
	committed uint64
}

func (w *window) rate() float64 { return float64(w.committed) / w.dur.Seconds() }

// segment is the merged result of one run segment.
type segment struct {
	elapsed     time.Duration
	cpu         time.Duration // user+system CPU of the process
	windows     []window
	lat         Hist // latency of every committed transaction
	attempted   uint64
	committed   uint64
	inputAborts uint64
	failed      uint64
	causes      map[string]uint64
	busy        time.Duration
	unhealthy   bool
	spans       []Span
	kinds       []Hist
	mem         memDelta
}

// memDelta is the change of the Go runtime's allocation counters over a
// segment.
type memDelta struct {
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	heapEnd    uint64
}

// cpuTime is the user+system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the closed loop for dur and returns the merged statistics.
// A sampler cuts the segment into windows of about windowLen (one window when
// windowLen is 0); a transaction belongs to the window it completes in. With
// traced set, every transaction leaves a root span and a sample in its kind's
// histogram.
func (r *runner) run(dur, windowLen time.Duration, traced bool) *segment {
	nWindows := 1
	if windowLen > 0 {
		nWindows = max(1, int(dur/windowLen))
	}
	stats := make([]*clientStats, numClients)
	for i := range stats {
		stats[i] = &clientStats{windows: make([]uint64, nWindows), causes: map[string]uint64{}}
		if traced {
			stats[i].spans = make([]Span, 0, spanCap)
			stats[i].kinds = make([]Hist, len(r.mix))
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var stop atomic.Bool
	var current atomic.Int32 // index of the window in progress
	cuts := make([]time.Time, 1, nWindows+1)
	var clients, sampler sync.WaitGroup
	done := make(chan struct{})
	cpu0 := cpuTime()
	start := time.Now()
	cuts[0] = start
	for id := range stats {
		clients.Add(1)
		go func() {
			defer clients.Done()
			r.client(id, stats[id], start, dur, &current, &stop)
		}()
	}
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for w := 1; w < nWindows; w++ {
			select {
			case <-done:
				return
			case <-time.After(time.Until(start.Add(time.Duration(w) * windowLen))):
			}
			cuts = append(cuts, time.Now())
			current.Store(int32(w))
		}
	}()
	clients.Wait()
	close(done)
	sampler.Wait()
	cuts = append(cuts, time.Now())
	cpu1 := cpuTime()
	runtime.ReadMemStats(&after)

	seg := &segment{
		elapsed: cuts[len(cuts)-1].Sub(start), cpu: cpu1 - cpu0, causes: map[string]uint64{},
		windows: make([]window, len(cuts)-1),
		mem: memDelta{
			mallocs:    after.Mallocs - before.Mallocs,
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
			heapEnd:    after.HeapAlloc,
		},
	}
	for w := range seg.windows {
		seg.windows[w].dur = cuts[w+1].Sub(cuts[w])
		for _, c := range stats {
			seg.windows[w].committed += c.windows[w]
		}
	}
	if traced {
		seg.kinds = make([]Hist, len(r.mix))
	}
	for _, c := range stats {
		seg.lat.Merge(&c.lat)
		seg.attempted += c.attempted
		seg.committed += c.committed
		seg.inputAborts += c.inputAborts
		seg.failed += c.failed
		seg.busy += c.busy
		seg.unhealthy = seg.unhealthy || c.unhealthy
		for cause, n := range c.causes {
			seg.causes[cause] += n
		}
		seg.spans = append(seg.spans, c.spans...)
		for k := range c.kinds {
			seg.kinds[k].Merge(&c.kinds[k])
		}
		r.acked += c.acked
	}
	return seg
}

// client is one closed-loop caller: it draws a transaction kind, runs it,
// waits for the reply and records the outcome, until dur has passed. A
// failure that leaves the engine unhealthy stops every client at once, so a
// dead engine is reported as failed and not as millions of fast refusals.
func (r *runner) client(id int, c *clientStats, start time.Time, dur time.Duration, current *atomic.Int32, stop *atomic.Bool) {
	rng, b := r.rngs[id], r.bench
	for !stop.Load() {
		kind := r.mix.Pick(rng)
		t0 := time.Now()
		var err error
		if r.spec.system == harness.DORA {
			err = b.Driver.RunDORA(b.DORA, kind, rng, id)
		} else {
			err = b.Driver.RunBaseline(b.Engine, kind, rng, id)
		}
		t1 := time.Now()
		if err == nil {
			c.acked++
		}
		if t1.Sub(start) >= dur {
			return // acknowledged after the deadline: outside the measurement
		}
		lat := t1.Sub(t0)
		c.attempted++
		c.busy += lat
		switch {
		case err == nil:
			c.committed++
			c.windows[current.Load()]++
			c.lat.Record(int64(lat))
			if c.kinds != nil {
				c.kinds[r.kindIdx[kind]].Record(int64(lat))
			}
		case workload.AbortCause(err) == workload.CauseInput:
			c.inputAborts++ // the benchmark specification asks for these
		default:
			c.failed++
			c.causes[workload.AbortCause(err)]++
			if b.Engine.Health() != engine.HealthHealthy {
				c.unhealthy = true
				stop.Store(true)
			}
		}
		if c.spans != nil {
			c.spans = append(c.spans, Span{
				Name: kind, Start: int64(t0.Sub(epoch)), End: int64(t1.Sub(epoch)),
				Parent: -1, Lane: int32(id), Calls: 1, OK: err == nil,
			})
		}
	}
}

// check is the correctness gate after a segment: the engine is quiescent
// (every client has its reply), so the workload's invariants must hold, the
// engine must be healthy and the log must have seen no device error.
func (r *runner) check(seg *segment) error {
	e := r.bench.Engine
	if seg.unhealthy || e.Health() != engine.HealthHealthy {
		return fmt.Errorf("engine left the healthy state: %s (failures by cause: %v)", e.Health(), seg.causes)
	}
	if err := e.Log().Err(); err != nil {
		return fmt.Errorf("log device: %w", err)
	}
	if err := r.bench.Driver.Check(e); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	return nil
}
