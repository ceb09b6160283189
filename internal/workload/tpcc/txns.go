package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/lockmgr"
	"dora/internal/storage"
	"dora/internal/workload"
)

func ik(vals ...int64) storage.Key {
	vs := make([]storage.Value, len(vals))
	for i, v := range vals {
		vs[i] = storage.IntValue(v)
	}
	return storage.EncodeKey(vs...)
}

// paymentInput is the parameter set of one Payment transaction (TPC-C §2.5).
type paymentInput struct {
	wID, dID   int64
	cWID, cDID int64
	cID        int64  // 0 when selecting by last name
	cLast      string // used when cID == 0
	amount     float64
}

func (d *Driver) genPayment(rng *rand.Rand) paymentInput {
	in := paymentInput{
		wID:    d.pickWarehouse(rng),
		dID:    1 + rng.Int63n(DistrictsPerWarehouse),
		amount: 1 + rng.Float64()*4999,
	}
	// 85% local customer, 15% from a remote warehouse (the case a
	// shared-nothing system would execute as a distributed transaction).
	if d.Warehouses > 1 && rng.Intn(100) < 15 {
		for {
			in.cWID = 1 + rng.Int63n(d.Warehouses)
			if in.cWID != in.wID {
				break
			}
		}
	} else {
		in.cWID = in.wID
	}
	in.cDID = 1 + rng.Int63n(DistrictsPerWarehouse)
	// By default 60% of Payments select the customer by last name (§2.5.1.2).
	if rng.Intn(100) < d.ByNamePercent {
		in.cLast = workload.LastName(workload.NURand(rng, 255, 0, 999) % d.CustomersPerDistrict)
	} else {
		in.cID = workload.NURand(rng, 1023, 1, d.CustomersPerDistrict)
	}
	return in
}

type orderStatusInput struct {
	wID, dID int64
	cID      int64
	cLast    string
}

func (d *Driver) genOrderStatus(rng *rand.Rand) orderStatusInput {
	in := orderStatusInput{
		wID: d.pickWarehouse(rng),
		dID: 1 + rng.Int63n(DistrictsPerWarehouse),
	}
	if rng.Intn(100) < d.ByNamePercent {
		in.cLast = workload.LastName(workload.NURand(rng, 255, 0, 999) % d.CustomersPerDistrict)
	} else {
		in.cID = workload.NURand(rng, 1023, 1, d.CustomersPerDistrict)
	}
	return in
}

type newOrderInput struct {
	wID, dID, cID int64
	items         []int64
	quantities    []int64
	invalid       bool // ~1% of NewOrders reference a non-existent item and abort
}

func (d *Driver) genNewOrder(rng *rand.Rand) newOrderInput {
	in := newOrderInput{
		wID: d.pickWarehouse(rng),
		dID: 1 + rng.Int63n(DistrictsPerWarehouse),
		cID: workload.NURand(rng, 1023, 1, d.CustomersPerDistrict),
	}
	n := 5 + rng.Intn(11)
	for i := 0; i < n; i++ {
		in.items = append(in.items, workload.NURand(rng, 8191, 1, d.Items))
		in.quantities = append(in.quantities, 1+rng.Int63n(10))
	}
	if rng.Intn(100) == 0 {
		in.items[len(in.items)-1] = d.Items + 100 // unused item id -> abort
		in.invalid = true
	}
	return in
}

// claim adds a no-op phase-0 action whose only effect is acquiring the
// table's local lock for the routing key. A TPC-C transaction's whole action
// footprint is known at dispatch, so claiming every lock in the first phase's
// atomic ordered submission (§4.2.3) makes the multi-phase flows deadlock-free
// among themselves: later phases re-acquire their (already held) locks
// reentrantly and never block mid-transaction. Without this, e.g. a Delivery
// holding NEW_ORDER while reaching for ORDERS deadlocks against a NewOrder
// holding ORDERS while reaching for NEW_ORDER, and every such victim pays the
// runtime's lock-wait timeout.
func claim(tx *dora.Transaction, table string, key storage.Key, mode dora.Mode) {
	tx.Add(0, &dora.Action{Table: table, Key: key, Mode: mode,
		Work: func(*dora.Scope) error { return nil }})
}

// abortable reports whether err is a benchmark-level abort rather than a
// system failure: invalid input (missing record, duplicate key), a
// concurrency-control victim (centralized deadlock/lock timeout for the
// Baseline, local lock-wait timeout for DORA), an admission-control shed, or
// a per-transaction deadline miss. The full five-transaction mix makes the
// concurrency kinds routine — e.g. a Delivery and a NewOrder on the same
// warehouse can deadlock across executors — and the victim's retry-style
// abort must not fail the run; sheds and deadline misses are likewise the
// designed outcome under overload, counted apart by workload.AbortCause.
// dora.ErrTxnTimeout is deliberately NOT here: the lock-wait timeout is the
// designed deadlock victim; a transaction hitting the 10s whole-transaction
// timeout means something is stuck and must surface as an error.
func abortable(err error) bool {
	return errors.Is(err, engine.ErrNotFound) || errors.Is(err, engine.ErrDuplicateKey) ||
		errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) ||
		errors.Is(err, dora.ErrLockWaitTimeout) || errors.Is(err, dora.ErrDeadlineExceeded) ||
		errors.Is(err, dora.ErrOverloaded)
}

// RunBaseline implements workload.Driver: the kind's flow graph runs
// thread-to-transaction on the calling goroutine. StockLevel has no flow
// graph (its DORA form is a snapshot read), so it runs stockLevelConventional.
func (d *Driver) RunBaseline(e *engine.Engine, kind string, rng *rand.Rand, workerID int) error {
	if kind == StockLevel {
		opt := engine.Conventional()
		opt.WorkerID = workerID
		txn := e.Begin()
		if _, err := d.stockLevelConventional(e, txn, d.genStockLevel(rng), opt); err != nil {
			e.Abort(txn)
			return classify(err)
		}
		return e.Commit(txn)
	}
	tx := dora.NewFlow()
	if err := d.flow(tx, kind, rng); err != nil {
		return err
	}
	return classify(dora.RunConventional(e, tx, workerID))
}

// RunDORA implements workload.Driver: the kind's flow graph runs on the
// executors owning its datasets; StockLevel reads one snapshot.
func (d *Driver) RunDORA(sys *dora.System, kind string, rng *rand.Rand, workerID int) error {
	_ = workerID
	if kind == StockLevel {
		_, err := d.stockLevelSnapshot(sys, d.genStockLevel(rng))
		return classify(err)
	}
	tx := sys.NewTransaction()
	if err := d.flow(tx, kind, rng); err != nil {
		return err
	}
	return classify(tx.Run())
}

// classify marks abortable failures as the benchmark's aborts.
func classify(err error) error {
	if err != nil && abortable(err) {
		return fmt.Errorf("%w: %w", workload.ErrAborted, err)
	}
	return err
}

// flow adds one transaction of the given kind, StockLevel excepted, to tx,
// drawing its inputs from rng.
func (d *Driver) flow(tx *dora.Transaction, kind string, rng *rand.Rand) error {
	switch kind {
	case Payment:
		d.payment(tx, d.genPayment(rng))
	case OrderStatus:
		orderStatus(tx, d.genOrderStatus(rng))
	case NewOrder:
		newOrder(tx, d.genNewOrder(rng))
	case Delivery:
		delivery(tx, d.genDelivery(rng), nil)
	default:
		return fmt.Errorf("tpcc: unknown transaction kind %q", kind)
	}
	return nil
}

// --- Payment -------------------------------------------------------------

// middleMatch returns the customer a by-name lookup selects: of the n
// matches, ordered by RID, the one at index n/2. This is a known deviation
// from the TPC-C specification (§2.5.2.2), which orders the customers sharing
// a last name by C_FIRST and takes the one at position ceil(n/2).
func middleMatch(matches []engine.IndexMatch) (engine.IndexMatch, error) {
	if len(matches) == 0 {
		return engine.IndexMatch{}, engine.ErrNotFound
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].RID.Key() < matches[j].RID.Key() })
	return matches[len(matches)/2], nil
}

// applyPayment returns the customer-row mutation of a Payment.
func applyPayment(amount float64) func(storage.Tuple) (storage.Tuple, error) {
	return func(tu storage.Tuple) (storage.Tuple, error) {
		tu[5] = storage.FloatValue(tu[5].Float - amount)
		tu[6] = storage.FloatValue(tu[6].Float + amount)
		tu[7] = storage.IntValue(tu[7].Int + 1)
		return tu, nil
	}
}

// payment adds the Payment flow graph, the paper's running example (Figure 4): the Warehouse,
// District, and Customer actions form the first phase (each merging the probe
// with the update because they share an identifier), and an RVP separates
// them from the History insert, which depends on them.
//
// When the customer is selected by last name (60% of Payments, §2.5.1.2) the
// flow instead uses a secondary action (§4.2.2): phase 0 runs the Warehouse
// and District updates and claims the Customer lock, phase 1 resolves the
// customer through the by-name index on the RVP thread and forwards the
// balance update to the executor owning the customer's warehouse
// (resolve-then-forward), and phase 2 inserts the History row. The forwarded
// action re-acquires the phase-0 claim reentrantly, so the out-of-band
// forward cannot deadlock.
func (d *Driver) payment(tx *dora.Transaction, in paymentInput) {
	tx.Add(0, &dora.Action{
		Table: "WAREHOUSE", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("WAREHOUSE", ik(in.wID), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float + in.amount)
				return tu, nil
			})
		},
	})
	tx.Add(0, &dora.Action{
		Table: "DISTRICT", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			return s.Update("DISTRICT", ik(in.wID, in.dID), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[4] = storage.FloatValue(tu[4].Float + in.amount)
				return tu, nil
			})
		},
	})
	// The Customer may live in a remote warehouse (15%); DORA handles it by
	// simply routing the action to that warehouse's executor (§4.1.2).
	historyPhase := 1
	if in.cID != 0 {
		// Selected by id: the identifier covers the routing field directly.
		tx.Add(0, &dora.Action{
			Table: "CUSTOMER", Key: ik(in.cWID), Mode: dora.Exclusive,
			Work: func(s *dora.Scope) error {
				return s.Update("CUSTOMER", ik(in.cWID, in.cDID, in.cID), applyPayment(in.amount))
			},
		})
	} else {
		// Selected by last name: a secondary action resolves the customer's
		// RID through the by-name index and forwards the update.
		historyPhase = 2
		claim(tx, "CUSTOMER", ik(in.cWID), dora.Exclusive)
		tx.Add(1, &dora.Action{
			Table: "CUSTOMER", Mode: dora.Exclusive,
			Work: func(s *dora.Scope) error {
				matches, err := s.SecondaryLookup("CUSTOMER", "by_name", storage.EncodeKey(
					storage.IntValue(in.cWID), storage.IntValue(in.cDID), storage.StringValue(in.cLast)))
				if err != nil {
					return err
				}
				m, err := middleMatch(matches)
				if err != nil {
					return err
				}
				return s.Forward(&dora.Action{
					Table: "CUSTOMER", Key: ik(in.cWID), Mode: dora.Exclusive,
					Work: func(s *dora.Scope) error {
						return s.UpdateRID("CUSTOMER", m.RID, applyPayment(in.amount))
					},
				})
			},
		})
	}
	claim(tx, "HISTORY", ik(in.wID), dora.Exclusive)
	tx.Add(historyPhase, &dora.Action{
		Table: "HISTORY", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			_, err := s.Insert("HISTORY", storage.Tuple{
				storage.IntValue(d.historyID.Add(1)),
				storage.IntValue(in.cID), storage.IntValue(in.cDID), storage.IntValue(in.cWID),
				storage.IntValue(in.dID), storage.IntValue(in.wID),
				storage.FloatValue(in.amount),
			})
			return err
		},
	})
}

// --- OrderStatus -----------------------------------------------------------

// latestOrderOf finds the most recent order id of a customer via the
// by-customer secondary index.
func latestOrderOf(s *dora.Scope, wID, dID, cID int64) (int64, error) {
	matches, err := s.SecondaryLookup("ORDERS", "by_customer", ik(wID, dID, cID))
	if err != nil {
		return 0, err
	}
	best := int64(-1)
	for _, m := range matches {
		rec, err := s.ProbeRID("ORDERS", m.RID)
		if err != nil {
			continue
		}
		if rec[2].Int > best {
			best = rec[2].Int
		}
	}
	if best < 0 {
		return 0, engine.ErrNotFound
	}
	return best, nil
}

// orderStatus adds the OrderStatus flow graph: customer resolution, then the last order, then its lines.
// The phases encode the data dependencies (customer id -> order id -> lines).
// When the customer is selected by last name, phase 0 claims the flow's lock
// footprint and a phase-1 secondary action resolves the customer through the
// by-name index off the executor threads, forwarding the customer probe to
// the owning executor (resolve-then-forward, §4.2.2); the by-id variant keeps
// the direct three-phase shape.
func orderStatus(tx *dora.Transaction, in orderStatusInput) {
	customerPhase := 0
	if in.cID != 0 {
		tx.Add(0, &dora.Action{
			Table: "CUSTOMER", Key: ik(in.wID), Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				if _, err := s.Probe("CUSTOMER", ik(in.wID, in.dID, in.cID)); err != nil {
					return err
				}
				s.Put("c_id", in.cID)
				return nil
			},
		})
	} else {
		customerPhase = 1
		claim(tx, "CUSTOMER", ik(in.wID), dora.Shared)
		tx.Add(1, &dora.Action{
			Table: "CUSTOMER", Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				matches, err := s.SecondaryLookup("CUSTOMER", "by_name",
					storage.EncodeKey(storage.IntValue(in.wID), storage.IntValue(in.dID), storage.StringValue(in.cLast)))
				if err != nil {
					return err
				}
				m, err := middleMatch(matches)
				if err != nil {
					return err
				}
				return s.Forward(&dora.Action{
					Table: "CUSTOMER", Key: ik(in.wID), Mode: dora.Shared,
					Work: func(s *dora.Scope) error {
						rec, err := s.ProbeRID("CUSTOMER", m.RID)
						if err != nil {
							return err
						}
						s.Put("c_id", rec[2].Int)
						return nil
					},
				})
			},
		})
	}
	claim(tx, "ORDERS", ik(in.wID), dora.Shared)
	claim(tx, "ORDER_LINE", ik(in.wID), dora.Shared)
	tx.Add(customerPhase+1, &dora.Action{
		Table: "ORDERS", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			v, ok := s.Get("c_id")
			if !ok {
				return errors.New("tpcc: customer phase did not run")
			}
			oID, err := latestOrderOf(s, in.wID, in.dID, v.(int64))
			if err != nil {
				return err
			}
			s.Put("o_id", oID)
			return nil
		},
	})
	tx.Add(customerPhase+2, &dora.Action{
		Table: "ORDER_LINE", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			v, ok := s.Get("o_id")
			if !ok {
				return errors.New("tpcc: orders phase did not run")
			}
			lines := 0
			err := s.ScanPrefix("ORDER_LINE", ik(in.wID, in.dID, v.(int64)), func(storage.Tuple) bool {
				lines++
				return true
			})
			if err != nil {
				return err
			}
			if lines == 0 {
				return engine.ErrNotFound
			}
			return nil
		},
	})
}

// --- NewOrder ---------------------------------------------------------------

// newOrder adds the NewOrder flow graph: phase 0 reads the warehouse, customer, and items and
// increments the district's next order id; phase 1 (after the RVP resolves
// the order-id dependency) inserts the order, the new-order entry, the order
// lines, and applies the stock updates. Actions touching the same dataset
// (all the stock rows of the warehouse; all the order lines) are merged into
// one action each, as their identifiers coincide.
func newOrder(tx *dora.Transaction, in newOrderInput) {
	tx.Add(0, &dora.Action{
		Table: "WAREHOUSE", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			_, err := s.Probe("WAREHOUSE", ik(in.wID))
			return err
		},
	})
	tx.Add(0, &dora.Action{
		Table: "CUSTOMER", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			_, err := s.Probe("CUSTOMER", ik(in.wID, in.dID, in.cID))
			return err
		},
	})
	tx.Add(0, &dora.Action{
		Table: "DISTRICT", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			var oID int64
			err := s.Update("DISTRICT", ik(in.wID, in.dID), func(tu storage.Tuple) (storage.Tuple, error) {
				oID = tu[5].Int
				tu[5] = storage.IntValue(oID + 1)
				return tu, nil
			})
			s.Put("o_id", oID)
			return err
		},
	})
	// One item-read action per distinct item: ITEM routes on the item id, so
	// these actions spread over the ITEM executors. They are dispatched
	// Unordered — outside the phase's ordered queue-latching group — so each
	// ITEM executor starts its probe immediately instead of waiting for the
	// whole write-set submission below to latch its queues; read-only ITEM
	// probes cannot join a deadlock cycle (nothing locks ITEM exclusively).
	prices := make([]float64, len(in.items))
	for i, item := range in.items {
		i, item := i, item
		tx.Add(0, &dora.Action{
			Table: "ITEM", Key: ik(item), Mode: dora.Shared, Unordered: true,
			Work: func(s *dora.Scope) error {
				rec, err := s.Probe("ITEM", ik(item))
				if err != nil {
					return err
				}
				prices[i] = rec[2].Float
				return nil
			},
		})
	}
	// The second phase's whole write set, claimed with the same atomic
	// submission as the reads above.
	claim(tx, "ORDERS", ik(in.wID), dora.Exclusive)
	claim(tx, "NEW_ORDER", ik(in.wID), dora.Exclusive)
	claim(tx, "STOCK", ik(in.wID), dora.Exclusive)
	claim(tx, "ORDER_LINE", ik(in.wID), dora.Exclusive)
	getOID := func(s *dora.Scope) (int64, error) {
		v, ok := s.Get("o_id")
		if !ok {
			return 0, errors.New("tpcc: district phase did not run")
		}
		return v.(int64), nil
	}
	tx.Add(1, &dora.Action{
		Table: "ORDERS", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			oID, err := getOID(s)
			if err != nil {
				return err
			}
			_, err = s.Insert("ORDERS", storage.Tuple{
				storage.IntValue(in.wID), storage.IntValue(in.dID), storage.IntValue(oID),
				storage.IntValue(in.cID), storage.IntValue(0), storage.IntValue(int64(len(in.items))),
			})
			return err
		},
	})
	tx.Add(1, &dora.Action{
		Table: "NEW_ORDER", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			oID, err := getOID(s)
			if err != nil {
				return err
			}
			_, err = s.Insert("NEW_ORDER", storage.Tuple{
				storage.IntValue(in.wID), storage.IntValue(in.dID), storage.IntValue(oID),
			})
			return err
		},
	})
	tx.Add(1, &dora.Action{
		Table: "STOCK", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			for i, item := range in.items {
				if err := s.Update("STOCK", ik(in.wID, item), func(tu storage.Tuple) (storage.Tuple, error) {
					q := tu[2].Int - in.quantities[i]
					if q < 10 {
						q += 91
					}
					tu[2] = storage.IntValue(q)
					tu[3] = storage.IntValue(tu[3].Int + in.quantities[i])
					tu[4] = storage.IntValue(tu[4].Int + 1)
					return tu, nil
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	tx.Add(1, &dora.Action{
		Table: "ORDER_LINE", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			oID, err := getOID(s)
			if err != nil {
				return err
			}
			for i, item := range in.items {
				if _, err := s.Insert("ORDER_LINE", storage.Tuple{
					storage.IntValue(in.wID), storage.IntValue(in.dID), storage.IntValue(oID), storage.IntValue(int64(i + 1)),
					storage.IntValue(item), storage.IntValue(in.quantities[i]),
					storage.FloatValue(prices[i] * float64(in.quantities[i])),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
}
