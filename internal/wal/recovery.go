package wal

import "fmt"

// Applier applies the effects of log records to storage during recovery and
// rollback. The storage engine implements it; keeping the interface here lets
// the recovery driver stay independent of the engine's table representation.
type Applier interface {
	// Redo re-applies the effect of r (insert/delete/update/CLR).
	Redo(r *Record) error
	// Undo reverses the effect of r using its before image.
	Undo(r *Record) error
}

// RecoveryStats summarizes a restart recovery run.
type RecoveryStats struct {
	// Analyzed is the number of log records scanned by the analysis pass.
	Analyzed int
	// Redone is the number of records replayed by the redo pass.
	Redone int
	// Undone is the number of records rolled back by the undo pass.
	Undone int
	// Winners and Losers are the committed and in-flight transaction counts.
	Winners int
	Losers  int

	// CheckpointLSN and CheckpointRecords are filled by checkpoint-aware
	// recovery drivers (engine.Open): the cut LSN of the checkpoint image
	// recovery started from and the record count it seeded the heaps with.
	// Both are zero on a full replay from LSN 1.
	CheckpointLSN     LSN
	CheckpointRecords int
}

// txnState is one active-transaction-table entry built by analysis.
type txnState struct {
	lastLSN   LSN
	committed bool
	ended     bool
}

// LogImage is the outcome of scanning the durable log: the decoded records in
// append order plus the analysis state (the rebuilt active-transaction table
// and the winner/loser classification). Splitting the scan from the replay
// lets the engine read schema records and rebuild its catalog before any
// change record is applied.
type LogImage struct {
	// Records are the durable records in append order.
	Records []*Record
	// MaxTxn is the highest transaction id that appears in the log; a
	// restarted engine resumes id assignment above it.
	MaxTxn TxnID
	// Winners and Losers count committed and in-flight-at-crash transactions.
	Winners int
	Losers  int

	att   map[TxnID]*txnState
	byLSN map[LSN]*Record
}

// Scan reads the durable portion of the log and runs the analysis pass:
// rebuild the active-transaction table and classify winners (committed) and
// losers (in-flight at the crash).
func (m *Manager) Scan() (*LogImage, error) {
	// Opening a pre-populated device already read and decoded the whole log;
	// the first Scan consumes that instead of a second full device read. The
	// cache is only valid while nothing has been appended since.
	m.mu.Lock()
	records := m.recovered
	m.recovered = nil
	usable := records != nil && m.appends.Load() == 0
	m.mu.Unlock()
	if !usable {
		var err error
		records, err = m.DurableRecords()
		if err != nil {
			return nil, fmt.Errorf("wal: reading log for recovery: %w", err)
		}
	}
	img := &LogImage{
		Records: records,
		att:     make(map[TxnID]*txnState),
		byLSN:   make(map[LSN]*Record, len(records)),
	}
	for _, r := range records {
		img.byLSN[r.LSN] = r
		if r.Txn == 0 {
			continue
		}
		if r.Txn > img.MaxTxn {
			img.MaxTxn = r.Txn
		}
		st := img.att[r.Txn]
		if st == nil {
			st = &txnState{}
			img.att[r.Txn] = st
		}
		st.lastLSN = r.LSN
		switch r.Type {
		case RecCommit:
			st.committed = true
		case RecEnd:
			st.ended = true
		}
	}
	for _, st := range img.att {
		if st.committed {
			img.Winners++
		} else if !st.ended {
			img.Losers++
		}
	}
	return img, nil
}

// ApplyCheckpoint narrows a scanned image to the records that must replay on
// top of a checkpoint image taken at cut with the given active-transaction set
// (transaction id -> first LSN, as latched by CheckpointCut and stored in the
// image header). A transaction replays iff it was active at the cut or its
// first record sits at or above the cut; every other transaction completed
// before the cut with a commit epoch at or below the image's — its effects are
// already in the image (or netted out to nothing by a finished rollback), so
// replaying its tail records would double-apply them. Non-transactional
// records (schema, checkpoint markers) are kept; MaxTxn keeps its value over
// the full tail so id assignment still resumes above everything scanned.
func (img *LogImage) ApplyCheckpoint(cut LSN, active map[TxnID]LSN) {
	first := make(map[TxnID]LSN)
	for _, r := range img.Records {
		if r.Txn == 0 {
			continue
		}
		if _, ok := first[r.Txn]; !ok {
			first[r.Txn] = r.LSN
		}
	}
	replayable := func(txn TxnID) bool {
		if _, ok := active[txn]; ok {
			return true
		}
		return first[txn] >= cut
	}
	kept := make([]*Record, 0, len(img.Records))
	img.att = make(map[TxnID]*txnState)
	img.byLSN = make(map[LSN]*Record)
	img.Winners, img.Losers = 0, 0
	for _, r := range img.Records {
		if r.Txn != 0 && !replayable(r.Txn) {
			continue
		}
		kept = append(kept, r)
		img.byLSN[r.LSN] = r
		if r.Txn == 0 {
			continue
		}
		st := img.att[r.Txn]
		if st == nil {
			st = &txnState{}
			img.att[r.Txn] = st
		}
		st.lastLSN = r.LSN
		switch r.Type {
		case RecCommit:
			st.committed = true
		case RecEnd:
			st.ended = true
		}
	}
	img.Records = kept
	for _, st := range img.att {
		if st.committed {
			img.Winners++
		} else if !st.ended {
			img.Losers++
		}
	}
}

// beginRecovery guards the mutating half of restart recovery: a closed
// manager's log image is final (its device is released), and two replays
// interleaving their compensation records would corrupt the undo chains.
func (m *Manager) beginRecovery() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return fmt.Errorf("wal: recover: %w", ErrClosed)
	}
	if m.recovering {
		return ErrRecoveryInProgress
	}
	m.recovering = true
	return nil
}

func (m *Manager) endRecovery() {
	m.mu.Lock()
	m.recovering = false
	m.mu.Unlock()
}

// Replay runs the redo and undo passes over a scanned log image:
//
//	redo — repeat history by re-applying every change record in order
//	       (the engine starts from an empty, freshly formatted store, so
//	       redo-from-start is equivalent to ARIES' dirty-page-table redo),
//	undo — roll back losers youngest-record-first, writing CLRs so that a
//	       crash during recovery remains recoverable.
//
// New CLR and End records are appended to mgr for the losers. Replay returns
// ErrClosed when the manager has been closed and ErrRecoveryInProgress when
// another replay of the same manager is still running.
func Replay(mgr *Manager, img *LogImage, applier Applier) (RecoveryStats, error) {
	stats := RecoveryStats{
		Analyzed: len(img.Records),
		Winners:  img.Winners,
		Losers:   img.Losers,
	}
	if err := mgr.beginRecovery(); err != nil {
		return stats, err
	}
	defer mgr.endRecovery()

	// Redo: repeat history for every change record, winners and losers alike.
	for _, r := range img.Records {
		switch r.Type {
		case RecInsert, RecDelete, RecUpdate, RecCLR:
			if err := applier.Redo(r); err != nil {
				return stats, fmt.Errorf("wal: redo of %s: %w", r, err)
			}
			stats.Redone++
		}
	}

	// Undo losers.
	for txn, st := range img.att {
		if st.committed || st.ended {
			continue
		}
		// The manager does not maintain PrevLSN chains (callers own them), so
		// the undo pass threads the loser's chain through the compensation
		// records it appends.
		cur, last := st.lastLSN, st.lastLSN
		for cur != NilLSN {
			r := img.byLSN[cur]
			if r == nil {
				break
			}
			switch r.Type {
			case RecInsert, RecDelete, RecUpdate:
				if err := applier.Undo(r); err != nil {
					return stats, fmt.Errorf("wal: undo of %s: %w", r, err)
				}
				stats.Undone++
				lsn, err := mgr.Append(&Record{
					Txn:      txn,
					PrevLSN:  last,
					Type:     RecCLR,
					TableID:  r.TableID,
					RID:      r.RID,
					After:    r.Before,
					UndoNext: r.PrevLSN,
				})
				if err != nil {
					return stats, fmt.Errorf("wal: logging CLR during recovery: %w", err)
				}
				last = lsn
				cur = r.PrevLSN
			case RecCLR:
				cur = r.UndoNext
			default:
				cur = r.PrevLSN
			}
		}
		if _, err := mgr.Append(&Record{Txn: txn, PrevLSN: last, Type: RecEnd}); err != nil {
			return stats, fmt.Errorf("wal: logging END during recovery: %w", err)
		}
	}
	mgr.FlushAll()
	return stats, nil
}

// Recover runs restart recovery over the durable portion of the log:
// analysis (Scan) followed by redo and undo (Replay).
func Recover(mgr *Manager, applier Applier) (RecoveryStats, error) {
	img, err := mgr.Scan()
	if err != nil {
		return RecoveryStats{}, err
	}
	return Replay(mgr, img, applier)
}
