// Package tm1 implements Nokia's Network Database Benchmark (TM1, also known
// as TATP), the telecom workload the paper uses for its headline results:
// four tables keyed by subscriber, seven extremely short transactions (three
// read-only, four updating), with a meaningful fraction of transactions
// aborting on invalid input. Routing and partitioning use the subscriber id,
// the natural routing field the paper uses.
package tm1

import (
	"errors"
	"fmt"
	"math/rand"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// Transaction kind names.
const (
	GetSubscriberData    = "GetSubscriberData"
	GetNewDestination    = "GetNewDestination"
	GetAccessData        = "GetAccessData"
	UpdateSubscriberData = "UpdateSubscriberData"
	UpdateLocation       = "UpdateLocation"
	InsertCallForwarding = "InsertCallForwarding"
	DeleteCallForwarding = "DeleteCallForwarding"

	// UpdateSubscriberDataSerial forces the DORA-S (serial) plan of Figure
	// 11; UpdateSubscriberData uses the resource manager's decision.
	UpdateSubscriberDataSerial   = "UpdateSubscriberDataSerial"
	UpdateSubscriberDataParallel = "UpdateSubscriberDataParallel"
)

// DefaultSubscribers is the default population. The paper uses 5 M
// subscribers; the default here keeps test and benchmark runs fast while
// preserving the access skew (lock contention in this workload is on
// lock-manager metadata, not on data volume).
const DefaultSubscribers = 20000

// Driver is the TM1 workload.
type Driver struct {
	// Subscribers is the population size.
	Subscribers int64
}

func init() {
	workload.Register("tm1", func() workload.Driver { return &Driver{Subscribers: DefaultSubscribers} })
}

// New returns a TM1 driver with the given population.
func New(subscribers int64) *Driver { return &Driver{Subscribers: subscribers} }

// Name implements workload.Driver.
func (d *Driver) Name() string { return "TM1" }

// Mix returns the standard TATP transaction mix.
func (d *Driver) Mix() workload.Mix {
	return workload.Mix{
		{Name: GetSubscriberData, Weight: 35},
		{Name: GetAccessData, Weight: 35},
		{Name: GetNewDestination, Weight: 10},
		{Name: UpdateLocation, Weight: 14},
		{Name: UpdateSubscriberData, Weight: 2},
		{Name: InsertCallForwarding, Weight: 2},
		{Name: DeleteCallForwarding, Weight: 2},
	}
}

// CreateTables implements workload.Driver.
func (d *Driver) CreateTables(e *engine.Engine) error {
	defs := []engine.TableDef{
		{
			Name: "SUBSCRIBER",
			Schema: storage.NewSchema(
				storage.Column{Name: "s_id", Kind: storage.KindInt},
				storage.Column{Name: "sub_nbr", Kind: storage.KindString},
				storage.Column{Name: "bit_1", Kind: storage.KindInt},
				storage.Column{Name: "msc_location", Kind: storage.KindInt},
				storage.Column{Name: "vlr_location", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"s_id"},
			RoutingFields: []string{"s_id"},
			Secondary:     []engine.SecondaryDef{{Name: "by_sub_nbr", Columns: []string{"sub_nbr"}, Unique: true}},
		},
		{
			Name: "ACCESS_INFO",
			Schema: storage.NewSchema(
				storage.Column{Name: "s_id", Kind: storage.KindInt},
				storage.Column{Name: "ai_type", Kind: storage.KindInt},
				storage.Column{Name: "data1", Kind: storage.KindInt},
				storage.Column{Name: "data2", Kind: storage.KindInt},
				storage.Column{Name: "data3", Kind: storage.KindString},
				storage.Column{Name: "data4", Kind: storage.KindString},
			),
			PrimaryKey:    []string{"s_id", "ai_type"},
			RoutingFields: []string{"s_id"},
		},
		{
			Name: "SPECIAL_FACILITY",
			Schema: storage.NewSchema(
				storage.Column{Name: "s_id", Kind: storage.KindInt},
				storage.Column{Name: "sf_type", Kind: storage.KindInt},
				storage.Column{Name: "is_active", Kind: storage.KindInt},
				storage.Column{Name: "error_cntrl", Kind: storage.KindInt},
				storage.Column{Name: "data_a", Kind: storage.KindInt},
				storage.Column{Name: "data_b", Kind: storage.KindString},
			),
			PrimaryKey:    []string{"s_id", "sf_type"},
			RoutingFields: []string{"s_id"},
		},
		{
			Name: "CALL_FORWARDING",
			Schema: storage.NewSchema(
				storage.Column{Name: "s_id", Kind: storage.KindInt},
				storage.Column{Name: "sf_type", Kind: storage.KindInt},
				storage.Column{Name: "start_time", Kind: storage.KindInt},
				storage.Column{Name: "end_time", Kind: storage.KindInt},
				storage.Column{Name: "numberx", Kind: storage.KindString},
			),
			PrimaryKey:    []string{"s_id", "sf_type", "start_time"},
			RoutingFields: []string{"s_id"},
		},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return fmt.Errorf("tm1: %w", err)
		}
	}
	return nil
}

// Load implements workload.Driver. Each subscriber has 1-4 ACCESS_INFO rows,
// 1-4 SPECIAL_FACILITY rows (each type present with probability ~62.5%, the
// success rate of Figure 11), and 0-3 CALL_FORWARDING rows per facility.
func (d *Driver) Load(e *engine.Engine, rng *rand.Rand) error {
	const batch = 1000
	for lo := int64(1); lo <= d.Subscribers; lo += batch {
		hi := lo + batch - 1
		if hi > d.Subscribers {
			hi = d.Subscribers
		}
		txn := e.Begin()
		for sid := lo; sid <= hi; sid++ {
			sub := storage.Tuple{
				storage.IntValue(sid),
				storage.StringValue(fmt.Sprintf("%015d", sid)),
				storage.IntValue(rng.Int63n(2)),
				storage.IntValue(rng.Int63()),
				storage.IntValue(rng.Int63()),
			}
			if _, err := e.Insert(txn, "SUBSCRIBER", sub, engine.Conventional()); err != nil {
				e.Abort(txn)
				return fmt.Errorf("tm1: loading subscriber %d: %w", sid, err)
			}
			nAI := 1 + rng.Int63n(4)
			for ai := int64(1); ai <= nAI; ai++ {
				rec := storage.Tuple{
					storage.IntValue(sid), storage.IntValue(ai),
					storage.IntValue(rng.Int63n(256)), storage.IntValue(rng.Int63n(256)),
					storage.StringValue(workload.RandomString(rng, 3)),
					storage.StringValue(workload.RandomString(rng, 5)),
				}
				if _, err := e.Insert(txn, "ACCESS_INFO", rec, engine.Conventional()); err != nil {
					e.Abort(txn)
					return err
				}
			}
			for sf := int64(1); sf <= 4; sf++ {
				if rng.Float64() >= 0.625 {
					continue
				}
				rec := storage.Tuple{
					storage.IntValue(sid), storage.IntValue(sf),
					storage.IntValue(1), storage.IntValue(rng.Int63n(256)),
					storage.IntValue(rng.Int63n(256)),
					storage.StringValue(workload.RandomString(rng, 5)),
				}
				if _, err := e.Insert(txn, "SPECIAL_FACILITY", rec, engine.Conventional()); err != nil {
					e.Abort(txn)
					return err
				}
				nCF := rng.Int63n(4)
				for cf := int64(0); cf < nCF; cf++ {
					rec := storage.Tuple{
						storage.IntValue(sid), storage.IntValue(sf),
						storage.IntValue(cf * 8),
						storage.IntValue(cf*8 + rng.Int63n(8) + 1),
						storage.StringValue(workload.RandomString(rng, 15)),
					}
					if _, err := e.Insert(txn, "CALL_FORWARDING", rec, engine.Conventional()); err != nil {
						e.Abort(txn)
						return err
					}
				}
			}
		}
		if err := e.Commit(txn); err != nil {
			return err
		}
	}
	return nil
}

// Check implements workload.Driver: it verifies TM1's structural invariants
// over a quiescent engine. The transactions never create or destroy
// subscribers, so the population must stay intact, and InsertCallForwarding
// only adds rows under an existing special facility, so every CALL_FORWARDING
// row must keep a parent SPECIAL_FACILITY row.
func (d *Driver) Check(e *engine.Engine) error {
	txn := e.Begin()
	defer e.Commit(txn)
	opt := engine.DORARead() // quiescent engine: lock-free reads

	subs := 0
	if err := e.ScanTable(txn, "SUBSCRIBER", opt, func(storage.Tuple) bool {
		subs++
		return true
	}); err != nil {
		return err
	}
	if int64(subs) != d.Subscribers {
		return fmt.Errorf("tm1: %d SUBSCRIBER rows, want %d", subs, d.Subscribers)
	}

	var checkErr error
	if err := e.ScanTable(txn, "CALL_FORWARDING", opt, func(tu storage.Tuple) bool {
		switch _, err := e.Probe(txn, "SPECIAL_FACILITY", sfKey(tu[0].Int, tu[1].Int), opt); {
		case errors.Is(err, engine.ErrNotFound):
			checkErr = fmt.Errorf("tm1: CALL_FORWARDING (%d,%d,%d) has no SPECIAL_FACILITY parent",
				tu[0].Int, tu[1].Int, tu[2].Int)
			return false
		case err != nil:
			// A system-level failure is not a referential-integrity verdict.
			checkErr = err
			return false
		}
		return true
	}); err != nil {
		return err
	}
	return checkErr
}

// BindDORA implements workload.Driver: every table is routed on the
// subscriber id.
func (d *Driver) BindDORA(sys *dora.System, executorsPerTable int) error {
	for _, table := range []string{"SUBSCRIBER", "ACCESS_INFO", "SPECIAL_FACILITY", "CALL_FORWARDING"} {
		if err := sys.BindTableInts(table, 1, d.Subscribers, executorsPerTable); err != nil {
			return err
		}
	}
	return nil
}

// randomSID picks a subscriber uniformly.
func (d *Driver) randomSID(rng *rand.Rand) int64 { return 1 + rng.Int63n(d.Subscribers) }

func sidKey(sid int64) storage.Key { return storage.EncodeKey(storage.IntValue(sid)) }

func sfKey(sid, sf int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(sid), storage.IntValue(sf))
}

func cfKey(sid, sf, start int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(sid), storage.IntValue(sf), storage.IntValue(start))
}

// RunBaseline implements workload.Driver: the kind's flow graph runs
// thread-to-transaction on the calling goroutine.
func (d *Driver) RunBaseline(e *engine.Engine, kind string, rng *rand.Rand, workerID int) error {
	tx := dora.NewFlow()
	if err := d.flow(tx, kind, rng, dora.PlanParallel); err != nil {
		return err
	}
	return classify(dora.RunConventional(e, tx, workerID))
}

// RunDORA implements workload.Driver: the kind's flow graph runs on the
// executors owning the subscriber's datasets.
func (d *Driver) RunDORA(sys *dora.System, kind string, rng *rand.Rand, workerID int) error {
	_ = workerID // executors attribute their own accesses in traces
	plan := dora.PlanParallel
	if kind == UpdateSubscriberData {
		plan = sys.PartitionManager().PlanFor(UpdateSubscriberData)
	}
	tx := sys.NewTransaction()
	if err := d.flow(tx, kind, rng, plan); err != nil {
		return err
	}
	err := tx.Run()
	if kind == UpdateSubscriberData {
		sys.PartitionManager().RecordOutcome(UpdateSubscriberData, err != nil)
	}
	return classify(err)
}

// classify marks TM1's invalid-input failures (a missing record, a duplicate
// key) as the benchmark's intentional aborts.
func classify(err error) error {
	if errors.Is(err, engine.ErrNotFound) || errors.Is(err, engine.ErrDuplicateKey) {
		return fmt.Errorf("%w: %w", workload.ErrAborted, err)
	}
	return err
}

// flow adds one transaction of the given kind to tx, drawing its inputs from
// rng. Every action is routed on the subscriber id. plan places
// UpdateSubscriberData's actions; its Serial and Parallel kinds force theirs.
func (d *Driver) flow(tx *dora.Transaction, kind string, rng *rand.Rand, plan dora.Plan) error {
	sid := d.randomSID(rng)
	switch kind {
	case GetSubscriberData:
		getSubscriberData(tx, sid)
	case GetAccessData:
		getAccessData(tx, sid, 1+rng.Int63n(4))
	case GetNewDestination:
		getNewDestination(tx, sid, 1+rng.Int63n(4))
	case UpdateLocation:
		updateLocation(tx, sid, rng.Int63())
	case UpdateSubscriberData, UpdateSubscriberDataParallel, UpdateSubscriberDataSerial:
		switch kind {
		case UpdateSubscriberDataParallel:
			plan = dora.PlanParallel
		case UpdateSubscriberDataSerial:
			plan = dora.PlanSerial
		}
		updateSubscriberData(tx, sid, 1+rng.Int63n(4), rng.Int63n(2), rng.Int63n(256), plan)
	case InsertCallForwarding:
		sf, start := 1+rng.Int63n(4), rng.Int63n(3)*8
		insertCallForwarding(tx, sid, sf, start, start+rng.Int63n(8)+1, workload.RandomString(rng, 15))
	case DeleteCallForwarding:
		deleteCallForwarding(tx, sid, 1+rng.Int63n(4), rng.Int63n(3)*8)
	default:
		return fmt.Errorf("tm1: unknown transaction kind %q", kind)
	}
	return nil
}

func getSubscriberData(tx *dora.Transaction, sid int64) {
	key := sidKey(sid) // SUBSCRIBER's routing key is its whole primary key
	tx.Add(0, &dora.Action{
		Table: "SUBSCRIBER", Key: key, Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			_, err := s.Probe("SUBSCRIBER", key)
			return err
		},
	})
}

func getAccessData(tx *dora.Transaction, sid, ai int64) {
	tx.Add(0, &dora.Action{
		Table: "ACCESS_INFO", Key: sidKey(sid), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			_, err := s.Probe("ACCESS_INFO", storage.EncodeKey(storage.IntValue(sid), storage.IntValue(ai)))
			return err
		},
	})
}

// getNewDestination: both actions have the subscriber id as identifier;
// SPECIAL_FACILITY and CALL_FORWARDING are different tables so they go to
// different executors, with a data dependency resolved within one phase each.
func getNewDestination(tx *dora.Transaction, sid, sf int64) {
	tx.Add(0, &dora.Action{
		Table: "SPECIAL_FACILITY", Key: sidKey(sid), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			rec, err := s.Probe("SPECIAL_FACILITY", sfKey(sid, sf))
			if err != nil {
				return err
			}
			if rec[2].Int != 1 {
				return fmt.Errorf("%w: inactive special facility", engine.ErrNotFound)
			}
			return nil
		},
	})
	tx.Add(1, &dora.Action{
		Table: "CALL_FORWARDING", Key: sidKey(sid), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			found := false
			err := s.ScanPrefix("CALL_FORWARDING", sfKey(sid, sf), func(storage.Tuple) bool {
				found = true
				return false
			})
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("%w: no call forwarding entry", engine.ErrNotFound)
			}
			return nil
		},
	})
}

func updateLocation(tx *dora.Transaction, sid, vlr int64) {
	key := sidKey(sid) // SUBSCRIBER's routing key is its whole primary key
	tx.Add(0, &dora.Action{
		Table: "SUBSCRIBER", Key: key, Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("SUBSCRIBER", key, func(tu storage.Tuple) (storage.Tuple, error) {
				tu[4] = storage.IntValue(vlr)
				return tu, nil
			})
		},
	})
}

// updateSubscriberData is the Figure 11 transaction: one action always
// succeeds (SUBSCRIBER), the other succeeds only when the chosen special
// facility exists (~62.5%). The parallel plan runs both in one phase; the
// serial plan runs the failure-prone action first and the other only if it
// succeeded, wasting no work on aborts.
func updateSubscriberData(tx *dora.Transaction, sid, sf, bit, dataA int64, plan dora.Plan) {
	subPhase := 0
	if plan == dora.PlanSerial {
		subPhase = 1
	}
	tx.Add(0, &dora.Action{
		Table: "SPECIAL_FACILITY", Key: sidKey(sid), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("SPECIAL_FACILITY", sfKey(sid, sf), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[4] = storage.IntValue(dataA)
				return tu, nil
			})
		},
	})
	key := sidKey(sid) // SUBSCRIBER's routing key is its whole primary key
	tx.Add(subPhase, &dora.Action{
		Table: "SUBSCRIBER", Key: key, Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("SUBSCRIBER", key, func(tu storage.Tuple) (storage.Tuple, error) {
				tu[2] = storage.IntValue(bit)
				return tu, nil
			})
		},
	})
}

func insertCallForwarding(tx *dora.Transaction, sid, sf, start, end int64, number string) {
	tx.Add(0, &dora.Action{
		Table: "SPECIAL_FACILITY", Key: sidKey(sid), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			_, err := s.Probe("SPECIAL_FACILITY", sfKey(sid, sf))
			return err
		},
	})
	tx.Add(1, &dora.Action{
		Table: "CALL_FORWARDING", Key: sidKey(sid), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			_, err := s.Insert("CALL_FORWARDING", storage.Tuple{
				storage.IntValue(sid), storage.IntValue(sf), storage.IntValue(start),
				storage.IntValue(end), storage.StringValue(number),
			})
			return err
		},
	})
}

func deleteCallForwarding(tx *dora.Transaction, sid, sf, start int64) {
	tx.Add(0, &dora.Action{
		Table: "CALL_FORWARDING", Key: sidKey(sid), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Delete("CALL_FORWARDING", cfKey(sid, sf, start))
		},
	})
}
