package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBreakdownNormalizes(t *testing.T) {
	m := NewCollector()
	m.AddTime(Work, 60*time.Millisecond)
	m.AddTime(LockMgr, 30*time.Millisecond)
	m.AddTime(LockMgrContention, 10*time.Millisecond)

	b := m.Breakdown()
	if b.Total != 100*time.Millisecond {
		t.Fatalf("Total = %v, want 100ms", b.Total)
	}
	if got := b.Fractions[Work]; got < 0.59 || got > 0.61 {
		t.Fatalf("Work fraction = %v, want 0.6", got)
	}
	sum := 0.0
	for _, f := range b.Fractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	m := NewCollector()
	b := m.Breakdown()
	if b.Total != 0 {
		t.Fatalf("empty collector Total = %v", b.Total)
	}
	for c, f := range b.Fractions {
		if f != 0 {
			t.Fatalf("component %v fraction = %v, want 0", c, f)
		}
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var m *Collector
	// Must not panic.
	m.AddTime(Work, time.Second)
	m.AddLock(RowLock, 3)
	m.AddAcquire(time.Millisecond, time.Millisecond)
	m.AddRelease(time.Millisecond, time.Millisecond)
	m.TxnCommitted(time.Millisecond)
	m.TxnAborted()
}

func TestLockCensusAndPer100(t *testing.T) {
	m := NewCollector()
	for i := 0; i < 50; i++ {
		m.AddLock(RowLock, 2)
		m.AddLock(HigherLevelLock, 1)
		m.AddLock(LocalLock, 4)
		m.TxnCommitted(time.Millisecond)
	}
	census := m.LockCensus()
	if census[RowLock] != 100 || census[HigherLevelLock] != 50 || census[LocalLock] != 200 {
		t.Fatalf("census = %v", census)
	}
	per100 := m.LocksPer100Txns()
	if per100[RowLock] != 200 {
		t.Fatalf("row locks per 100 = %v, want 200", per100[RowLock])
	}
	if per100[LocalLock] != 400 {
		t.Fatalf("local locks per 100 = %v, want 400", per100[LocalLock])
	}
}

func TestLockMgrBreakdown(t *testing.T) {
	m := NewCollector()
	m.AddAcquire(40*time.Millisecond, 10*time.Millisecond)
	m.AddRelease(30*time.Millisecond, 20*time.Millisecond)
	lb := m.LockMgrBreakdown()
	if lb.Acquire < 0.39 || lb.Acquire > 0.41 {
		t.Fatalf("Acquire = %v, want 0.4", lb.Acquire)
	}
	if lb.ReleaseContention < 0.19 || lb.ReleaseContention > 0.21 {
		t.Fatalf("ReleaseContention = %v, want 0.2", lb.ReleaseContention)
	}
	sum := lb.Acquire + lb.AcquireContention + lb.Release + lb.ReleaseContention + lb.Other
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("lock mgr breakdown sums to %v", sum)
	}
}

func TestLatencyStats(t *testing.T) {
	m := NewCollector()
	for i := 1; i <= 100; i++ {
		m.TxnCommitted(time.Duration(i) * time.Millisecond)
	}
	if got := m.MeanLatency(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
	if got := len(m.Latencies()); got != 100 {
		t.Fatalf("%d latencies recorded, want 100", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	m := NewCollector()
	if m.MeanLatency() != 0 || len(m.Latencies()) != 0 {
		t.Fatal("empty collector latency stats should be zero")
	}
}

func TestConcurrentUse(t *testing.T) {
	m := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddTime(Work, time.Microsecond)
				m.AddLock(RowLock, 1)
				m.TxnCommitted(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if m.Committed() != 8000 {
		t.Fatalf("committed = %d, want 8000", m.Committed())
	}
	if m.LockCensus()[RowLock] != 8000 {
		t.Fatalf("row locks = %d, want 8000", m.LockCensus()[RowLock])
	}
}

func TestReset(t *testing.T) {
	m := NewCollector()
	m.AddTime(Work, time.Second)
	m.AddLock(LocalLock, 5)
	m.TxnCommitted(time.Second)
	m.TxnAborted()
	m.Reset()
	if m.Committed() != 0 || m.Aborted() != 0 {
		t.Fatal("Reset did not clear txn counters")
	}
	if m.Breakdown().Total != 0 {
		t.Fatal("Reset did not clear times")
	}
	if len(m.Latencies()) != 0 {
		t.Fatal("Reset did not clear latencies")
	}
}

func TestComponentAndLockClassStrings(t *testing.T) {
	if Work.String() != "Work" || LockMgrContention.String() != "LockMgrCont" {
		t.Fatal("unexpected component labels")
	}
	if RowLock.String() != "Row-level" || LocalLock.String() != "Thread-local" {
		t.Fatal("unexpected lock class labels")
	}
	if !strings.Contains(Component(99).String(), "99") {
		t.Fatal("unknown component should include numeric value")
	}
}

func TestCollectorString(t *testing.T) {
	m := NewCollector()
	m.AddTime(Work, time.Millisecond)
	m.AddLock(RowLock, 1)
	m.TxnCommitted(time.Millisecond)
	s := m.String()
	if !strings.Contains(s, "committed=1") || !strings.Contains(s, "row=1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDurabilityLatencyHistograms(t *testing.T) {
	c := NewCollector()
	c.ObserveDeviceWrite(150 * time.Microsecond)
	c.ObserveDeviceWrite(3 * time.Microsecond)
	c.ObserveFsync(2 * time.Millisecond)
	c.ObserveFsync(-time.Second) // negative durations are dropped

	dw := c.DeviceWriteLatency()
	if dw.Count != 2 || dw.Sum != 153 {
		t.Fatalf("device-write histogram = %+v, want 2 observations summing 153us", dw)
	}
	fs := c.FsyncLatency()
	if fs.Count != 1 || fs.Sum != 2000 {
		t.Fatalf("fsync histogram = %+v, want 1 observation of 2000us", fs)
	}
	if s := c.String(); !strings.Contains(s, "devwrite-us") || !strings.Contains(s, "fsync-us") {
		t.Fatalf("String() misses durability histograms: %s", s)
	}
	c.Reset()
	if c.DeviceWriteLatency().Count != 0 || c.FsyncLatency().Count != 0 {
		t.Fatal("Reset left durability histograms populated")
	}
	// Nil collectors swallow observations like the other instruments.
	var nilC *Collector
	nilC.ObserveDeviceWrite(time.Second)
	nilC.ObserveFsync(time.Second)
}
