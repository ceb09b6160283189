package tpcc

import (
	"math/rand"

	"dora/internal/dora"
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
// or 0 when the district has no undelivered orders (order ids start at 1).
func oldestUndelivered(s *dora.Scope, wID, dID int64) (int64, error) {
	var oID int64
	err := s.ScanPrefix("NEW_ORDER", ik(wID, dID), func(tu storage.Tuple) bool {
		oID = tu[2].Int
		return false
	})
	return oID, err
}

// delivery adds the Delivery flow graph (TPC-C §2.7) — the poster child for
// DORA's multi-phase decomposition, with genuine inter-action data
// dependencies carried across rendezvous points. For the oldest undelivered
// order of every district of the warehouse it deletes the NEW_ORDER entry,
// stamps the carrier on ORDERS (reading the customer id), sums the
// ORDER_LINE amounts, and credits the customer's balance; districts without
// undelivered orders are skipped (§2.7.4.2):
//
//	phase 0: lock claims on NEW_ORDER[w] (X), ORDERS[w] (X),
//	         ORDER_LINE[w] (S), CUSTOMER[w] (X)
//	---- RVP1 ----
//	phase 1: 10 secondary actions, one per district: probe the oldest
//	         undelivered order (inline on the RVP thread), record it in
//	         orders[d], and forward the NEW_ORDER delete to the owning
//	         executor (resolve-then-forward, §4.2.2)
//	---- RVP2 ----
//	phase 2: ORDERS[w]      stamp carrier, read customer ids -> cids[d]
//	phase 2: ORDER_LINE[w]  sum line amounts per district    -> amounts[d]
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
// they forward run on the NEW_ORDER executor. The two phase-2 actions depend
// only on the probed order ids and run concurrently on their tables'
// executors; the phase-3 action needs both their outputs. Each per-district
// slot is written by one action and read only after the RVP that follows it.
// When delivered is non-nil it receives the number of delivered orders.
func delivery(tx *dora.Transaction, in deliveryInput, delivered *int) {
	// Indexed by district id; an order id of 0 marks a district with nothing
	// to deliver.
	var orders, cids [DistrictsPerWarehouse + 1]int64
	var amounts [DistrictsPerWarehouse + 1]float64
	claim(tx, "NEW_ORDER", ik(in.wID), dora.Exclusive)
	claim(tx, "ORDERS", ik(in.wID), dora.Exclusive)
	claim(tx, "ORDER_LINE", ik(in.wID), dora.Shared)
	claim(tx, "CUSTOMER", ik(in.wID), dora.Exclusive)
	for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
		tx.Add(1, &dora.Action{
			Table: "NEW_ORDER", Mode: dora.Exclusive,
			Work: func(s *dora.Scope) error {
				oID, err := oldestUndelivered(s, in.wID, dd)
				if err != nil || oID == 0 {
					return err
				}
				orders[dd] = oID
				return s.Forward(&dora.Action{
					Table: "NEW_ORDER", Key: ik(in.wID), Mode: dora.Exclusive,
					Work: func(s *dora.Scope) error {
						return s.Delete("NEW_ORDER", ik(in.wID, dd, oID))
					},
				})
			},
		})
	}
	tx.Add(2, &dora.Action{
		Table: "ORDERS", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			for dd, oID := range orders {
				if oID == 0 {
					continue
				}
				if err := s.Update("ORDERS", ik(in.wID, int64(dd), oID), func(tu storage.Tuple) (storage.Tuple, error) {
					cids[dd] = tu[3].Int
					tu[4] = storage.IntValue(in.carrierID)
					return tu, nil
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	tx.Add(2, &dora.Action{
		Table: "ORDER_LINE", Key: ik(in.wID), Mode: dora.Shared,
		Work: func(s *dora.Scope) error {
			for dd, oID := range orders {
				if oID == 0 {
					continue
				}
				if err := s.ScanPrefix("ORDER_LINE", ik(in.wID, int64(dd), oID), func(tu storage.Tuple) bool {
					amounts[dd] += tu[6].Float
					return true
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	tx.Add(3, &dora.Action{
		Table: "CUSTOMER", Key: ik(in.wID), Mode: dora.Exclusive,
		Work: func(s *dora.Scope) error {
			n := 0
			for dd, oID := range orders {
				if oID == 0 {
					continue
				}
				if err := s.Update("CUSTOMER", ik(in.wID, int64(dd), cids[dd]), func(tu storage.Tuple) (storage.Tuple, error) {
					tu[5] = storage.FloatValue(tu[5].Float + amounts[dd])
					return tu, nil
				}); err != nil {
					return err
				}
				n++
			}
			if delivered != nil {
				*delivered = n
			}
			return nil
		},
	})
}
