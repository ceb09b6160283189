// Package tpcb implements the TPC-B banking benchmark used in the paper's
// lock-manager breakdown experiment (Figure 3) and throughput scaling
// experiments (Figures 5, 6, 8): four tables and a single AccountUpdate
// transaction that updates an account, its teller and branch balances, and
// appends a history row. Routing uses the branch id.
package tpcb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// AccountUpdate is TPC-B's single transaction kind.
const AccountUpdate = "AccountUpdate"

// Scale defaults. The paper uses 100 branches; tests shrink further.
const (
	DefaultBranches    = 10
	TellersPerBranch   = 10
	DefaultAccountsPer = 200
)

// Driver is the TPC-B workload.
type Driver struct {
	Branches          int64
	AccountsPerBranch int64

	historyID atomic.Int64
}

func init() {
	workload.Register("tpcb", func() workload.Driver { return New(DefaultBranches) })
}

// New returns a TPC-B driver with the given branch count.
func New(branches int64) *Driver {
	return &Driver{Branches: branches, AccountsPerBranch: DefaultAccountsPer}
}

// Name implements workload.Driver.
func (d *Driver) Name() string { return "TPC-B" }

// Mix implements workload.Driver.
func (d *Driver) Mix() workload.Mix {
	return workload.Mix{{Name: AccountUpdate, Weight: 100}}
}

// CreateTables implements workload.Driver.
func (d *Driver) CreateTables(e *engine.Engine) error {
	defs := []engine.TableDef{
		{
			Name: "BRANCH",
			Schema: storage.NewSchema(
				storage.Column{Name: "b_id", Kind: storage.KindInt},
				storage.Column{Name: "b_balance", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"b_id"},
			RoutingFields: []string{"b_id"},
		},
		{
			Name: "TELLER",
			Schema: storage.NewSchema(
				storage.Column{Name: "t_b_id", Kind: storage.KindInt},
				storage.Column{Name: "t_id", Kind: storage.KindInt},
				storage.Column{Name: "t_balance", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"t_b_id", "t_id"},
			RoutingFields: []string{"t_b_id"},
		},
		{
			Name: "ACCOUNT",
			Schema: storage.NewSchema(
				storage.Column{Name: "a_b_id", Kind: storage.KindInt},
				storage.Column{Name: "a_id", Kind: storage.KindInt},
				storage.Column{Name: "a_balance", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"a_b_id", "a_id"},
			RoutingFields: []string{"a_b_id"},
		},
		{
			Name: "HISTORY",
			Schema: storage.NewSchema(
				storage.Column{Name: "h_id", Kind: storage.KindInt},
				storage.Column{Name: "h_b_id", Kind: storage.KindInt},
				storage.Column{Name: "h_t_id", Kind: storage.KindInt},
				storage.Column{Name: "h_a_id", Kind: storage.KindInt},
				storage.Column{Name: "h_delta", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"h_id"},
			RoutingFields: []string{"h_b_id"},
		},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return fmt.Errorf("tpcb: %w", err)
		}
	}
	return nil
}

// Load implements workload.Driver.
func (d *Driver) Load(e *engine.Engine, rng *rand.Rand) error {
	opt := engine.Conventional()
	for b := int64(1); b <= d.Branches; b++ {
		txn := e.Begin()
		if _, err := e.Insert(txn, "BRANCH", storage.Tuple{
			storage.IntValue(b), storage.FloatValue(0),
		}, opt); err != nil {
			e.Abort(txn)
			return err
		}
		for t := int64(1); t <= TellersPerBranch; t++ {
			if _, err := e.Insert(txn, "TELLER", storage.Tuple{
				storage.IntValue(b), storage.IntValue(t), storage.FloatValue(0),
			}, opt); err != nil {
				e.Abort(txn)
				return err
			}
		}
		for a := int64(1); a <= d.AccountsPerBranch; a++ {
			if _, err := e.Insert(txn, "ACCOUNT", storage.Tuple{
				storage.IntValue(b), storage.IntValue(a), storage.FloatValue(0),
			}, opt); err != nil {
				e.Abort(txn)
				return err
			}
		}
		if err := e.Commit(txn); err != nil {
			return err
		}
	}
	_ = rng
	return nil
}

// Check implements workload.Driver: the TPC-B consistency condition. Every
// committed AccountUpdate applies the same delta to one account, one teller,
// and one branch and appends it to HISTORY, so on a quiescent engine the four
// sums must agree (balances start at zero).
func (d *Driver) Check(e *engine.Engine) error {
	txn := e.Begin()
	defer e.Commit(txn)
	opt := engine.DORARead() // quiescent engine: lock-free reads

	sum := func(table string, col int) (float64, error) {
		total := 0.0
		err := e.ScanTable(txn, table, opt, func(tu storage.Tuple) bool {
			total += tu[col].Float
			return true
		})
		return total, err
	}
	branches, err := sum("BRANCH", 1)
	if err != nil {
		return err
	}
	tellers, err := sum("TELLER", 2)
	if err != nil {
		return err
	}
	accounts, err := sum("ACCOUNT", 2)
	if err != nil {
		return err
	}
	history, err := sum("HISTORY", 4)
	if err != nil {
		return err
	}
	for _, other := range []struct {
		name string
		got  float64
	}{{"BRANCH", branches}, {"TELLER", tellers}, {"ACCOUNT", accounts}} {
		if !workload.FloatClose(other.got, history) {
			return fmt.Errorf("tpcb: Σ %s balance %.2f != Σ HISTORY delta %.2f", other.name, other.got, history)
		}
	}
	return nil
}

// BindDORA implements workload.Driver.
func (d *Driver) BindDORA(sys *dora.System, executorsPerTable int) error {
	for _, table := range []string{"BRANCH", "TELLER", "ACCOUNT", "HISTORY"} {
		n := executorsPerTable
		if n > int(d.Branches) {
			n = int(d.Branches)
		}
		if err := sys.BindTableInts(table, 1, d.Branches, n); err != nil {
			return err
		}
	}
	return nil
}

// input is one AccountUpdate's parameters.
type input struct {
	branch  int64 // teller's branch
	teller  int64
	acctB   int64 // account's branch (15% remote)
	account int64
	delta   float64
}

func (d *Driver) genInput(rng *rand.Rand) input {
	in := input{
		branch: 1 + rng.Int63n(d.Branches),
		teller: 1 + rng.Int63n(TellersPerBranch),
		delta:  float64(rng.Int63n(1999999)-999999) / 100,
	}
	in.acctB = in.branch
	if d.Branches > 1 && rng.Intn(100) < 15 {
		for {
			in.acctB = 1 + rng.Int63n(d.Branches)
			if in.acctB != in.branch {
				break
			}
		}
	}
	in.account = 1 + rng.Int63n(d.AccountsPerBranch)
	return in
}

func bk(b int64) storage.Key { return storage.EncodeKey(storage.IntValue(b)) }

func pk2(a, b int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(a), storage.IntValue(b))
}

// RunBaseline implements workload.Driver: the AccountUpdate flow graph runs
// thread-to-transaction on the calling goroutine.
func (d *Driver) RunBaseline(e *engine.Engine, kind string, rng *rand.Rand, workerID int) error {
	if kind != AccountUpdate {
		return fmt.Errorf("tpcb: unknown transaction kind %q", kind)
	}
	tx := dora.NewFlow()
	d.accountUpdate(tx, d.genInput(rng))
	return classify(dora.RunConventional(e, tx, workerID))
}

// RunDORA implements workload.Driver: the AccountUpdate flow graph runs on
// the executors owning its branches.
func (d *Driver) RunDORA(sys *dora.System, kind string, rng *rand.Rand, workerID int) error {
	if kind != AccountUpdate {
		return fmt.Errorf("tpcb: unknown transaction kind %q", kind)
	}
	_ = workerID
	tx := sys.NewTransaction()
	d.accountUpdate(tx, d.genInput(rng))
	return classify(tx.Run())
}

// classify marks a missing record as the benchmark's intentional abort.
func classify(err error) error {
	if errors.Is(err, engine.ErrNotFound) {
		return fmt.Errorf("%w: %w", workload.ErrAborted, err)
	}
	return err
}

// accountUpdate adds the AccountUpdate flow graph to tx: the account, teller,
// and branch updates are independent actions of the first phase; the history
// insert follows after the rendezvous point.
func (d *Driver) accountUpdate(tx *dora.Transaction, in input) {
	tx.Add(0, &dora.Action{
		Table: "ACCOUNT", Key: bk(in.acctB), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("ACCOUNT", pk2(in.acctB, in.account), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[2] = storage.FloatValue(tu[2].Float + in.delta)
				return tu, nil
			})
		},
	})
	tx.Add(0, &dora.Action{
		Table: "TELLER", Key: bk(in.branch), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("TELLER", pk2(in.branch, in.teller), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[2] = storage.FloatValue(tu[2].Float + in.delta)
				return tu, nil
			})
		},
	})
	tx.Add(0, &dora.Action{
		Table: "BRANCH", Key: bk(in.branch), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("BRANCH", bk(in.branch), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[1] = storage.FloatValue(tu[1].Float + in.delta)
				return tu, nil
			})
		},
	})
	tx.Add(1, &dora.Action{
		Table: "HISTORY", Key: bk(in.branch), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			_, err := s.Insert("HISTORY", storage.Tuple{
				storage.IntValue(d.historyID.Add(1)),
				storage.IntValue(in.branch), storage.IntValue(in.teller),
				storage.IntValue(in.account), storage.FloatValue(in.delta),
			})
			return err
		},
	})
}
