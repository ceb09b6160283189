// Package tpcc implements the TPC-C order-entry benchmark: all five
// transactions (NewOrder, Payment, OrderStatus, Delivery, StockLevel) over
// the full nine-table schema, partitioned and routed on the warehouse id (the
// routing-field choice the paper's running example uses), plus the §3.3.2
// consistency-condition checker that validates post-run database state.
package tpcc

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// Transaction kind names.
const (
	Payment     = "Payment"
	OrderStatus = "OrderStatus"
	NewOrder    = "NewOrder"
	Delivery    = "Delivery"
	StockLevel  = "StockLevel"
)

// Scale defaults. The paper uses 150 warehouses with the full TPC-C
// cardinalities; the defaults here shrink the per-warehouse populations so
// test and benchmark runs stay fast while preserving the transaction logic,
// access skew, and lock footprint per transaction.
const (
	DefaultWarehouses           = 4
	DistrictsPerWarehouse       = 10
	DefaultCustomersPerDistrict = 120
	DefaultItems                = 1000
	initialOrdersPerDistrict    = 30
)

// Driver is the TPC-C workload.
type Driver struct {
	Warehouses           int64
	CustomersPerDistrict int64
	Items                int64

	// ByNamePercent is the share of Payment and OrderStatus customer
	// selections made by last name through the by-name secondary index
	// (the TPC-C specification uses 60). The by-name flows carry a
	// secondary resolve-then-forward action in DORA mode, so raising this
	// makes the mix secondary-heavy.
	ByNamePercent int

	// WarehouseHotspot, when set, draws warehouse ids from the hotspot
	// generator (value v maps to warehouse v+1) instead of uniformly. The
	// hot window can be moved mid-run (Hotspot.Shift), which is how the
	// balancer stress test relocates the hot warehouses.
	WarehouseHotspot *workload.Hotspot

	historyID atomic.Int64
}

// pickWarehouse draws a warehouse id: hotspot-skewed when a hotspot is set,
// uniform otherwise.
func (d *Driver) pickWarehouse(rng *rand.Rand) int64 {
	if d.WarehouseHotspot != nil {
		return 1 + d.WarehouseHotspot.Next(rng)
	}
	return 1 + rng.Int63n(d.Warehouses)
}

func init() {
	workload.Register("tpcc", func() workload.Driver {
		return New(DefaultWarehouses)
	})
}

// New returns a TPC-C driver with the given warehouse count and default
// per-warehouse cardinalities.
func New(warehouses int64) *Driver {
	return &Driver{
		Warehouses:           warehouses,
		CustomersPerDistrict: DefaultCustomersPerDistrict,
		Items:                DefaultItems,
		ByNamePercent:        60,
	}
}

// Name implements workload.Driver.
func (d *Driver) Name() string { return "TPC-C" }

// Mix returns the standard five-transaction TPC-C mix (§5.2.3): 45% NewOrder,
// 43% Payment, and 4% each of OrderStatus, Delivery, and StockLevel.
func (d *Driver) Mix() workload.Mix {
	return workload.Mix{
		{Name: NewOrder, Weight: 45},
		{Name: Payment, Weight: 43},
		{Name: OrderStatus, Weight: 4},
		{Name: Delivery, Weight: 4},
		{Name: StockLevel, Weight: 4},
	}
}

// CreateTables implements workload.Driver.
func (d *Driver) CreateTables(e *engine.Engine) error {
	defs := []engine.TableDef{
		{
			Name: "WAREHOUSE",
			Schema: storage.NewSchema(
				storage.Column{Name: "w_id", Kind: storage.KindInt},
				storage.Column{Name: "w_name", Kind: storage.KindString},
				storage.Column{Name: "w_tax", Kind: storage.KindFloat},
				storage.Column{Name: "w_ytd", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"w_id"},
			RoutingFields: []string{"w_id"},
		},
		{
			Name: "DISTRICT",
			Schema: storage.NewSchema(
				storage.Column{Name: "d_w_id", Kind: storage.KindInt},
				storage.Column{Name: "d_id", Kind: storage.KindInt},
				storage.Column{Name: "d_name", Kind: storage.KindString},
				storage.Column{Name: "d_tax", Kind: storage.KindFloat},
				storage.Column{Name: "d_ytd", Kind: storage.KindFloat},
				storage.Column{Name: "d_next_o_id", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"d_w_id", "d_id"},
			RoutingFields: []string{"d_w_id"},
		},
		{
			Name: "CUSTOMER",
			Schema: storage.NewSchema(
				storage.Column{Name: "c_w_id", Kind: storage.KindInt},
				storage.Column{Name: "c_d_id", Kind: storage.KindInt},
				storage.Column{Name: "c_id", Kind: storage.KindInt},
				storage.Column{Name: "c_last", Kind: storage.KindString},
				storage.Column{Name: "c_first", Kind: storage.KindString},
				storage.Column{Name: "c_balance", Kind: storage.KindFloat},
				storage.Column{Name: "c_ytd_payment", Kind: storage.KindFloat},
				storage.Column{Name: "c_payment_cnt", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"c_w_id", "c_d_id", "c_id"},
			RoutingFields: []string{"c_w_id"},
			// The by-name index includes the warehouse and district ids, so
			// a Payment by customer last name still has the routing field in
			// its identifier and needs no secondary action (§4.1.2).
			Secondary: []engine.SecondaryDef{
				{Name: "by_name", Columns: []string{"c_w_id", "c_d_id", "c_last"}},
			},
		},
		{
			Name: "HISTORY",
			Schema: storage.NewSchema(
				storage.Column{Name: "h_id", Kind: storage.KindInt},
				storage.Column{Name: "h_c_id", Kind: storage.KindInt},
				storage.Column{Name: "h_c_d_id", Kind: storage.KindInt},
				storage.Column{Name: "h_c_w_id", Kind: storage.KindInt},
				storage.Column{Name: "h_d_id", Kind: storage.KindInt},
				storage.Column{Name: "h_w_id", Kind: storage.KindInt},
				storage.Column{Name: "h_amount", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"h_id"},
			RoutingFields: []string{"h_w_id"},
		},
		{
			Name: "ORDERS",
			Schema: storage.NewSchema(
				storage.Column{Name: "o_w_id", Kind: storage.KindInt},
				storage.Column{Name: "o_d_id", Kind: storage.KindInt},
				storage.Column{Name: "o_id", Kind: storage.KindInt},
				storage.Column{Name: "o_c_id", Kind: storage.KindInt},
				storage.Column{Name: "o_carrier_id", Kind: storage.KindInt},
				storage.Column{Name: "o_ol_cnt", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"o_w_id", "o_d_id", "o_id"},
			RoutingFields: []string{"o_w_id"},
			Secondary: []engine.SecondaryDef{
				{Name: "by_customer", Columns: []string{"o_w_id", "o_d_id", "o_c_id"}},
			},
		},
		{
			Name: "NEW_ORDER",
			Schema: storage.NewSchema(
				storage.Column{Name: "no_w_id", Kind: storage.KindInt},
				storage.Column{Name: "no_d_id", Kind: storage.KindInt},
				storage.Column{Name: "no_o_id", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"no_w_id", "no_d_id", "no_o_id"},
			RoutingFields: []string{"no_w_id"},
		},
		{
			Name: "ORDER_LINE",
			Schema: storage.NewSchema(
				storage.Column{Name: "ol_w_id", Kind: storage.KindInt},
				storage.Column{Name: "ol_d_id", Kind: storage.KindInt},
				storage.Column{Name: "ol_o_id", Kind: storage.KindInt},
				storage.Column{Name: "ol_number", Kind: storage.KindInt},
				storage.Column{Name: "ol_i_id", Kind: storage.KindInt},
				storage.Column{Name: "ol_quantity", Kind: storage.KindInt},
				storage.Column{Name: "ol_amount", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"},
			RoutingFields: []string{"ol_w_id"},
		},
		{
			Name: "ITEM",
			Schema: storage.NewSchema(
				storage.Column{Name: "i_id", Kind: storage.KindInt},
				storage.Column{Name: "i_name", Kind: storage.KindString},
				storage.Column{Name: "i_price", Kind: storage.KindFloat},
			),
			PrimaryKey:    []string{"i_id"},
			RoutingFields: []string{"i_id"},
		},
		{
			Name: "STOCK",
			Schema: storage.NewSchema(
				storage.Column{Name: "s_w_id", Kind: storage.KindInt},
				storage.Column{Name: "s_i_id", Kind: storage.KindInt},
				storage.Column{Name: "s_quantity", Kind: storage.KindInt},
				storage.Column{Name: "s_ytd", Kind: storage.KindInt},
				storage.Column{Name: "s_order_cnt", Kind: storage.KindInt},
			),
			PrimaryKey:    []string{"s_w_id", "s_i_id"},
			RoutingFields: []string{"s_w_id"},
		},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return fmt.Errorf("tpcc: %w", err)
		}
	}
	return nil
}

// Load implements workload.Driver.
func (d *Driver) Load(e *engine.Engine, rng *rand.Rand) error {
	opt := engine.Conventional()
	// Items (shared across warehouses).
	txn := e.Begin()
	for i := int64(1); i <= d.Items; i++ {
		item := storage.Tuple{
			storage.IntValue(i),
			storage.StringValue(workload.RandomString(rng, 14)),
			storage.FloatValue(1 + rng.Float64()*99),
		}
		if _, err := e.Insert(txn, "ITEM", item, opt); err != nil {
			e.Abort(txn)
			return err
		}
	}
	if err := e.Commit(txn); err != nil {
		return err
	}

	for w := int64(1); w <= d.Warehouses; w++ {
		txn := e.Begin()
		wh := storage.Tuple{
			storage.IntValue(w),
			storage.StringValue(fmt.Sprintf("WH-%d", w)),
			storage.FloatValue(rng.Float64() * 0.2),
			storage.FloatValue(300000),
		}
		if _, err := e.Insert(txn, "WAREHOUSE", wh, opt); err != nil {
			e.Abort(txn)
			return err
		}
		for i := int64(1); i <= d.Items; i++ {
			st := storage.Tuple{
				storage.IntValue(w), storage.IntValue(i),
				storage.IntValue(10 + rng.Int63n(91)),
				storage.IntValue(0), storage.IntValue(0),
			}
			if _, err := e.Insert(txn, "STOCK", st, opt); err != nil {
				e.Abort(txn)
				return err
			}
		}
		if err := e.Commit(txn); err != nil {
			return err
		}
		for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
			if err := d.loadDistrict(e, rng, w, dd); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *Driver) loadDistrict(e *engine.Engine, rng *rand.Rand, w, dd int64) error {
	opt := engine.Conventional()
	txn := e.Begin()
	dist := storage.Tuple{
		storage.IntValue(w), storage.IntValue(dd),
		storage.StringValue(fmt.Sprintf("D-%d-%d", w, dd)),
		storage.FloatValue(rng.Float64() * 0.2),
		storage.FloatValue(30000),
		storage.IntValue(initialOrdersPerDistrict + 1),
	}
	if _, err := e.Insert(txn, "DISTRICT", dist, opt); err != nil {
		e.Abort(txn)
		return err
	}
	for c := int64(1); c <= d.CustomersPerDistrict; c++ {
		cust := storage.Tuple{
			storage.IntValue(w), storage.IntValue(dd), storage.IntValue(c),
			storage.StringValue(workload.LastName(c % 1000)),
			storage.StringValue(workload.RandomString(rng, 8)),
			storage.FloatValue(-10),
			storage.FloatValue(10),
			storage.IntValue(1),
		}
		if _, err := e.Insert(txn, "CUSTOMER", cust, opt); err != nil {
			e.Abort(txn)
			return err
		}
	}
	for o := int64(1); o <= initialOrdersPerDistrict; o++ {
		cID := 1 + rng.Int63n(d.CustomersPerDistrict)
		olCnt := 5 + rng.Int63n(11)
		order := storage.Tuple{
			storage.IntValue(w), storage.IntValue(dd), storage.IntValue(o),
			storage.IntValue(cID), storage.IntValue(rng.Int63n(10)), storage.IntValue(olCnt),
		}
		if _, err := e.Insert(txn, "ORDERS", order, opt); err != nil {
			e.Abort(txn)
			return err
		}
		for ol := int64(1); ol <= olCnt; ol++ {
			line := storage.Tuple{
				storage.IntValue(w), storage.IntValue(dd), storage.IntValue(o), storage.IntValue(ol),
				storage.IntValue(1 + rng.Int63n(d.Items)),
				storage.IntValue(5),
				storage.FloatValue(rng.Float64() * 100),
			}
			if _, err := e.Insert(txn, "ORDER_LINE", line, opt); err != nil {
				e.Abort(txn)
				return err
			}
		}
	}
	return e.Commit(txn)
}

// BindDORA implements workload.Driver. Every table routes on the warehouse
// id except ITEM, which routes on the item id.
func (d *Driver) BindDORA(sys *dora.System, executorsPerTable int) error {
	whTables := []string{"WAREHOUSE", "DISTRICT", "CUSTOMER", "HISTORY", "ORDERS", "NEW_ORDER", "ORDER_LINE", "STOCK"}
	for _, table := range whTables {
		n := executorsPerTable
		if n > int(d.Warehouses) {
			n = int(d.Warehouses)
		}
		if err := sys.BindTableInts(table, 1, d.Warehouses, n); err != nil {
			return err
		}
	}
	return sys.BindTableInts("ITEM", 1, d.Items, executorsPerTable)
}
