package tpcc

import (
	"errors"
	"fmt"
	"math/rand"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
)

// deliveryInput is the parameter set of one Delivery transaction (TPC-C §2.7):
// a warehouse and the carrier assigned to every order it delivers.
type deliveryInput struct {
	wID       int64
	carrierID int64
}

func (d *Driver) genDelivery(rng *rand.Rand) deliveryInput {
	return deliveryInput{
		wID:       d.pickWarehouse(rng),
		carrierID: 1 + rng.Int63n(10),
	}
}

// oldestUndelivered returns the lowest undelivered order id of a district (the
// minimum no_o_id, which is the first NEW_ORDER entry in primary-key order),
// or -1 when the district has no undelivered orders.
func oldestUndelivered(scan func(prefix storage.Key, fn func(storage.Tuple) bool) error, wID, dID int64) (int64, error) {
	oID := int64(-1)
	err := scan(ik(wID, dID), func(tu storage.Tuple) bool {
		oID = tu[2].Int
		return false
	})
	return oID, err
}

// deliveryConventional delivers the oldest undelivered order of every district
// of the warehouse: delete its NEW_ORDER entry, stamp the carrier on ORDERS
// (reading the customer id), sum the ORDER_LINE amounts, and credit the
// customer's balance. Districts without undelivered orders are skipped
// (§2.7.4.2). It returns the number of orders delivered.
func (d *Driver) deliveryConventional(e *engine.Engine, txn *engine.Txn, in deliveryInput, opt engine.AccessOptions) (int, error) {
	delivered := 0
	for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
		oID, err := oldestUndelivered(func(prefix storage.Key, fn func(storage.Tuple) bool) error {
			return e.ScanPrefix(txn, "NEW_ORDER", prefix, opt, fn)
		}, in.wID, dd)
		if err != nil {
			return delivered, err
		}
		if oID < 0 {
			continue
		}
		if err := e.Delete(txn, "NEW_ORDER", ik(in.wID, dd, oID), opt); err != nil {
			return delivered, err
		}
		var cID int64
		if err := e.Update(txn, "ORDERS", ik(in.wID, dd, oID), opt, func(tu storage.Tuple) (storage.Tuple, error) {
			cID = tu[3].Int
			tu[4] = storage.IntValue(in.carrierID)
			return tu, nil
		}); err != nil {
			return delivered, err
		}
		amount := 0.0
		if err := e.ScanPrefix(txn, "ORDER_LINE", ik(in.wID, dd, oID), opt, func(tu storage.Tuple) bool {
			amount += tu[6].Float
			return true
		}); err != nil {
			return delivered, err
		}
		if err := e.Update(txn, "CUSTOMER", ik(in.wID, dd, cID), opt, func(tu storage.Tuple) (storage.Tuple, error) {
			tu[5] = storage.FloatValue(tu[5].Float + amount)
			return tu, nil
		}); err != nil {
			return delivered, err
		}
		delivered++
	}
	return delivered, nil
}

// deliveredKey names the shared-map slot for one district's delivered order.
func deliveredKey(dd int64) string { return fmt.Sprintf("del_%d", dd) }

// deliveryFlow builds the Delivery transaction flow graph — the poster child
// for DORA's multi-phase decomposition, with genuine inter-action data
// dependencies carried across rendezvous points through the transaction's
// shared map:
//
//	phase 0: lock claims on NEW_ORDER[w] (X), ORDERS[w] (X),
//	         ORDER_LINE[w] (S), CUSTOMER[w] (X)
//	---- RVP1 ----
//	phase 1: 10 secondary actions, one per district: probe the oldest
//	         undelivered order (inline on the RVP thread), record it under
//	         shared "del_<d>", and forward the NEW_ORDER delete to the
//	         owning executor (resolve-then-forward, §4.2.2)
//	---- RVP2 ----
//	phase 2: ORDERS[w]      stamp carrier, read customer ids -> shared "cids"
//	phase 2: ORDER_LINE[w]  sum line amounts per district    -> shared "amounts"
//	---- RVP3 ----
//	phase 3: CUSTOMER[w]    credit balances with the summed amounts
//	---- terminal RVP: commit ----
//
// The whole lock footprint is claimed in phase 0's atomic submission (see
// claim), so the flow cannot deadlock against NewOrder's write set and —
// because the per-district probes only start after the NEW_ORDER[w]
// exclusive claim is granted — two concurrent Deliveries on one warehouse
// serialize and never probe the same undelivered order. The probes
// themselves run inline on the thread that zeroed RVP1; only the deletes
// they forward run on the NEW_ORDER executor. The two
// phase-2 actions depend only on the probed order ids and run concurrently
// on their tables' executors; the phase-3 action needs both their outputs.
// When delivered is non-nil it receives the number of delivered orders after
// the flow commits.
func (d *Driver) deliveryFlow(sys *dora.System, in deliveryInput, delivered *int) *dora.Transaction {
	tx := sys.NewTransaction()
	claim(tx, "NEW_ORDER", ik(in.wID), dora.Exclusive)
	claim(tx, "ORDERS", ik(in.wID), dora.Exclusive)
	claim(tx, "ORDER_LINE", ik(in.wID), dora.Shared)
	claim(tx, "CUSTOMER", ik(in.wID), dora.Exclusive)
	for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
		dd := dd
		tx.Add(1, &dora.Action{
			Table: "NEW_ORDER", Mode: dora.Exclusive,
			Work: func(s *dora.Scope) error {
				oID, err := oldestUndelivered(func(prefix storage.Key, fn func(storage.Tuple) bool) error {
					return s.ScanPrefix("NEW_ORDER", prefix, fn)
				}, in.wID, dd)
				if err != nil {
					return err
				}
				if oID < 0 {
					return nil // district has no undelivered orders (§2.7.4.2)
				}
				s.Put(deliveredKey(dd), oID)
				return s.Forward(&dora.Action{
					Table: "NEW_ORDER", Key: ik(in.wID), Mode: dora.Exclusive,
					Work: func(s *dora.Scope) error {
						return s.Delete("NEW_ORDER", ik(in.wID, dd, oID))
					},
				})
			},
		})
	}
	getDelivered := func(s *dora.Scope) (map[int64]int64, error) {
		orders := make(map[int64]int64, DistrictsPerWarehouse) // district -> order id
		for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
			if v, ok := s.Get(deliveredKey(dd)); ok {
				orders[dd] = v.(int64)
			}
		}
		return orders, nil
	}
	tx.Add(2, &dora.Action{
		Table: "ORDERS", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			orders, err := getDelivered(s)
			if err != nil {
				return err
			}
			cids := make(map[int64]int64, len(orders))
			for dd, oID := range orders {
				var cID int64
				if err := s.Update("ORDERS", ik(in.wID, dd, oID), func(tu storage.Tuple) (storage.Tuple, error) {
					cID = tu[3].Int
					tu[4] = storage.IntValue(in.carrierID)
					return tu, nil
				}); err != nil {
					return err
				}
				cids[dd] = cID
			}
			s.Put("cids", cids)
			return nil
		},
	})
	tx.Add(2, &dora.Action{
		Table: "ORDER_LINE", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			orders, err := getDelivered(s)
			if err != nil {
				return err
			}
			amounts := make(map[int64]float64, len(orders))
			for dd, oID := range orders {
				sum := 0.0
				if err := s.ScanPrefix("ORDER_LINE", ik(in.wID, dd, oID), func(tu storage.Tuple) bool {
					sum += tu[6].Float
					return true
				}); err != nil {
					return err
				}
				amounts[dd] = sum
			}
			s.Put("amounts", amounts)
			return nil
		},
	})
	tx.Add(3, &dora.Action{
		Table: "CUSTOMER", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			v, ok := s.Get("cids")
			if !ok {
				return errors.New("tpcc: delivery orders phase did not run")
			}
			cids := v.(map[int64]int64)
			v, ok = s.Get("amounts")
			if !ok {
				return errors.New("tpcc: delivery order-line phase did not run")
			}
			amounts := v.(map[int64]float64)
			for dd, cID := range cids {
				amount, ok := amounts[dd]
				if !ok {
					return fmt.Errorf("tpcc: delivery has no amount for district %d", dd)
				}
				if err := s.Update("CUSTOMER", ik(in.wID, dd, cID), func(tu storage.Tuple) (storage.Tuple, error) {
					tu[5] = storage.FloatValue(tu[5].Float + amount)
					return tu, nil
				}); err != nil {
					return err
				}
			}
			if delivered != nil {
				*delivered = len(cids)
			}
			return nil
		},
	})
	return tx
}

func (d *Driver) deliveryDORA(sys *dora.System, in deliveryInput) error {
	return d.deliveryFlow(sys, in, nil).Run()
}
