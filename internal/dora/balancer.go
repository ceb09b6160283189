package dora

import (
	"sort"
	"sync"
	"time"
)

// Balancer is the online rebalancing control loop (the automation of Appendix
// A.2.1): it watches the per-range load histograms the executors feed on
// every drained batch, maintains a decaying (EWMA) view of where in each
// table's key space the load lands, computes an imbalance score (max/mean
// per-executor load), and issues PartitionManager.MoveBoundary operations
// when the score leaves the dead band. Hysteresis comes from the dead band
// itself (no move while max/mean stays under Threshold) and from a per-table
// cool-down of a few ticks after every applied move, so the loop converges on
// a balanced split instead of thrashing around it.
type Balancer struct {
	pm  *PartitionManager
	cfg BalancerConfig
	// now is the clock, injectable for tests (event timestamps).
	now func() time.Time

	mu     sync.Mutex
	states map[string]*tableState
	events []RebalanceEvent

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// BalancerConfig tunes the control loop. The zero value selects the defaults.
type BalancerConfig struct {
	// Interval is the control-loop tick period.
	Interval time.Duration
	// Threshold is the imbalance dead band: no boundary moves while
	// max/mean per-executor load stays below it.
	Threshold float64
	// Alpha is the EWMA decay factor applied to each tick's per-range load
	// observations (1 = only the latest tick, smaller = smoother).
	Alpha float64
	// Cooldown is how many ticks a table rests after a boundary move, giving
	// the drain protocol and the load signal time to reflect the new rule.
	Cooldown int
	// MinActions is the minimum decayed per-tick action count (table total)
	// required before the balancer acts: below it the signal is noise.
	MinActions float64
}

// Balancer defaults.
const (
	DefaultBalancerInterval   = 50 * time.Millisecond
	DefaultBalancerThreshold  = 1.5
	DefaultBalancerAlpha      = 0.5
	DefaultBalancerCooldown   = 3
	DefaultBalancerMinActions = 32
)

func (c BalancerConfig) withDefaults() BalancerConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultBalancerInterval
	}
	if c.Threshold <= 1 {
		c.Threshold = DefaultBalancerThreshold
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultBalancerAlpha
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBalancerCooldown
	}
	if c.MinActions <= 0 {
		c.MinActions = DefaultBalancerMinActions
	}
	return c
}

// RebalanceEvent records one applied boundary move.
type RebalanceEvent struct {
	When     time.Time
	Table    string
	Boundary int
	// From and To are the old and new integer boundary values.
	From, To int64
	// Imbalance is the max/mean load score that triggered the move.
	Imbalance float64
	// Version is the partition-table version installed by the move.
	Version uint64
}

// tableState is the balancer's per-table memory: the decayed per-bucket load
// and the remaining cool-down ticks.
type tableState struct {
	ewma     []float64
	cooldown int
}

func newBalancer(pm *PartitionManager, cfg BalancerConfig) *Balancer {
	return &Balancer{
		pm:     pm,
		cfg:    cfg.withDefaults(),
		now:    time.Now,
		states: make(map[string]*tableState),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// start launches the control loop goroutine.
func (b *Balancer) start() {
	go b.run()
}

// Stop terminates the control loop and waits for it to exit. It is safe to
// call more than once and leaves the installed routing rules in place.
func (b *Balancer) Stop() {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
}

func (b *Balancer) run() {
	defer close(b.done)
	ticker := time.NewTicker(b.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.quit:
			return
		case <-ticker.C:
			b.Tick()
		}
	}
}

// Events returns a copy of the rebalance events recorded so far.
func (b *Balancer) Events() []RebalanceEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RebalanceEvent, len(b.events))
	copy(out, b.events)
	return out
}

// EventCount returns the number of rebalance events recorded so far.
func (b *Balancer) EventCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Tick runs one evaluation pass over every bound table: fold the histogram
// deltas into the decayed view, score the imbalance, and apply at most one
// boundary move per table. It is the unit the ticker drives and the entry
// point stress tests call directly.
func (b *Balancer) Tick() {
	for table, p := range b.pm.snapshot() {
		rt := p.cur.Load()
		if p.hist == nil || !rt.intKeys || len(rt.executors) < 2 {
			continue
		}
		b.mu.Lock()
		st := b.states[table]
		if st == nil || len(st.ewma) != len(p.hist.buckets) {
			st = &tableState{ewma: make([]float64, len(p.hist.buckets))}
			b.states[table] = st
		}
		b.mu.Unlock()

		deltas := make([]uint64, len(p.hist.buckets))
		p.hist.drain(deltas)
		observe(st.ewma, deltas, b.cfg.Alpha)

		boundsBk := make([]int, len(rt.intBounds))
		for i, v := range rt.intBounds {
			boundsBk[i] = p.hist.bucketOf(v)
		}
		move, imbalance := planMove(st.ewma, boundsBk, b.cfg)
		if st.cooldown > 0 {
			st.cooldown--
			continue
		}
		if move == nil {
			continue
		}
		newKey := p.hist.keyOfBucket(move.bucket)
		if newKey == rt.intBounds[move.boundary] {
			// Coarse buckets (span > bucket count) can propose a bucket whose
			// first key is the current boundary; nothing would change.
			continue
		}
		ev := RebalanceEvent{
			When:      b.now(),
			Table:     table,
			Boundary:  move.boundary,
			From:      rt.intBounds[move.boundary],
			To:        newKey,
			Imbalance: imbalance,
		}
		if err := b.pm.MoveBoundary(table, move.boundary, encodeIntKey(newKey)); err != nil {
			// The control plane refused the move (for example a concurrent
			// rebind); drop it and re-evaluate next tick.
			continue
		}
		ev.Version = b.pm.Version()
		b.mu.Lock()
		st.cooldown = b.cfg.Cooldown
		b.events = append(b.events, ev)
		b.mu.Unlock()
	}
}

// observe folds one tick's raw per-bucket deltas into the decayed view.
func observe(ewma []float64, deltas []uint64, alpha float64) {
	for i, d := range deltas {
		ewma[i] = alpha*float64(d) + (1-alpha)*ewma[i]
	}
}

// moveProposal is one boundary move the planner wants applied: routing
// boundary `boundary` should sit at the first key of histogram bucket
// `bucket`.
type moveProposal struct {
	boundary int
	bucket   int
}

// planMove is the pure decision core of the control loop, fully determined by
// the decayed per-bucket loads, the current boundary positions (as bucket
// indexes), and the config. It returns the single most urgent boundary move,
// or nil together with the imbalance score when the loop should hold still:
// load below the noise floor, imbalance inside the dead band (hysteresis), or
// every boundary already as close to its load-ideal position as its
// neighbours allow.
//
// The ideal positions come from the load prefix sums: with n executors the
// j-th boundary belongs where the cumulative load crosses total*(j+1)/n, at
// the bucket minimizing the distance to that target. Boundaries are moved one
// per tick, most-misplaced first, each clamped strictly between its
// neighbours — successive ticks walk the rule to the balanced split, which is
// what makes the loop converge instead of oscillating around large jumps.
func planMove(ewma []float64, boundsBk []int, cfg BalancerConfig) (*moveProposal, float64) {
	n := len(boundsBk) + 1
	if n < 2 {
		return nil, 0
	}
	// Per-executor loads: sums of the buckets each executor owns.
	loads := make([]float64, n)
	total := 0.0
	for b, v := range ewma {
		e := 0
		for e < len(boundsBk) && b >= boundsBk[e] {
			e++
		}
		loads[e] += v
		total += v
	}
	if total <= 0 {
		return nil, 0
	}
	mean := total / float64(n)
	maxLoad := 0.0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	imbalance := maxLoad / mean
	if total < cfg.MinActions || imbalance < cfg.Threshold {
		return nil, imbalance
	}

	// Prefix sums over buckets: prefix[b] is the load of buckets < b.
	prefix := make([]float64, len(ewma)+1)
	for b, v := range ewma {
		prefix[b+1] = prefix[b] + v
	}
	abs := func(f float64) float64 {
		if f < 0 {
			return -f
		}
		return f
	}
	// Ideal bucket for each boundary: nearest to its load target.
	ideal := make([]int, len(boundsBk))
	for j := range boundsBk {
		target := total * float64(j+1) / float64(n)
		lo, hi := 1, len(ewma) // a boundary needs at least one bucket on each side
		bk := lo + sort.SearchFloat64s(prefix[lo:hi], target)
		if bk > lo && (bk >= hi || abs(prefix[bk-1]-target) <= abs(prefix[bk]-target)) {
			bk--
		}
		ideal[j] = bk
	}
	// Apply the most misplaced boundary (largest load distance from its
	// target) that can actually move within its neighbours.
	best, bestDist := -1, 0.0
	for j := range boundsBk {
		lo := 1
		if j > 0 {
			lo = boundsBk[j-1] + 1
		}
		hi := len(ewma) - 1
		if j < len(boundsBk)-1 {
			hi = boundsBk[j+1] - 1
		}
		bk := ideal[j]
		if bk < lo {
			bk = lo
		}
		if bk > hi {
			bk = hi
		}
		if bk == boundsBk[j] || lo > hi {
			continue
		}
		dist := abs(prefix[boundsBk[j]] - total*float64(j+1)/float64(n))
		if best == -1 || dist > bestDist {
			best, bestDist = j, dist
		}
	}
	if best == -1 {
		return nil, imbalance
	}
	bk := ideal[best]
	lo := 1
	if best > 0 {
		lo = boundsBk[best-1] + 1
	}
	hi := len(ewma) - 1
	if best < len(boundsBk)-1 {
		hi = boundsBk[best+1] - 1
	}
	if bk < lo {
		bk = lo
	}
	if bk > hi {
		bk = hi
	}
	return &moveProposal{boundary: best, bucket: bk}, imbalance
}
