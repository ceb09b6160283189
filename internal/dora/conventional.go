package dora

import (
	"fmt"

	"dora/internal/engine"
)

// NewFlow starts building a flow graph for RunConventional. Such a flow has
// no System, so it cannot be run on executors (Run); build with
// System.NewTransaction for that.
func NewFlow() *Transaction { return &Transaction{} }

// RunConventional runs the flow graph t thread-to-transaction: the Baseline
// execution of the very transaction DORA runs on its executors. Every action
// runs on the calling goroutine, phase by phase and in Add order within a
// phase, inside one engine transaction whose accesses take the centralized
// locks of engine.Conventional(), attributed to workerID. Forwarded actions
// run inline where they are forwarded, claim-only actions are the no-ops they
// are, and a Broadcast action runs once. No executor, RVP, admission credit,
// deadline or local lock is involved. It commits when every action succeeds;
// otherwise it rolls the transaction back and returns the first error as is.
func RunConventional(e *engine.Engine, t *Transaction, workerID int) error {
	if t.started {
		return fmt.Errorf("dora: transaction already started")
	}
	t.started = true
	opt := engine.Conventional()
	opt.WorkerID = workerID
	t.eng, t.txn = e, e.Begin()
	s := &Scope{flow: t, read: opt, write: opt}
	err := t.runPhases(s)
	if t.shared != nil {
		clear(t.shared)
		sharedPool.Put(t.shared)
		t.shared = nil
	}
	if err != nil {
		// The action's error is the outcome to report; a rollback that fails
		// marks the engine failed itself, which later calls then refuse.
		_ = e.Abort(t.txn)
		return err
	}
	return e.Commit(t.txn)
}

// runPhases runs every action of t in order with scope s, stopping at the
// first error.
func (t *Transaction) runPhases(s *Scope) error {
	for phase, actions := range t.phases {
		s.phase = phase
		for _, a := range actions {
			if a.Work == nil {
				return fmt.Errorf("dora: action needs a table and a body")
			}
			if err := a.Work(s); err != nil {
				return err
			}
		}
	}
	return nil
}
