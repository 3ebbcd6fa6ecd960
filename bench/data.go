package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/types"
	std "repro/internal/workload"
)

// The benchmark's data is a pure function of the row id, so every oracle can
// say what a row must hold without keeping a copy of the table. The schema is
// the repository's standard order-processing schema; only the rows are ours.

var (
	dataCities = []string{"Boston", "Chicago", "Denver", "Austin", "Erie", "Fresno", "Gary", "Helena"}
	dataItems  = []string{"widget", "gadget", "sprocket", "flange", "gear", "bolt", "bracket", "valve"}
)

// mix is splitmix64: a cheap, well-spread hash of (id, salt).
func mix(id, salt uint64) uint64 {
	z := id*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func customerTuple(id int) types.Tuple {
	h := mix(uint64(id), 1)
	return types.Tuple{
		types.NewInt(int64(id)),
		types.NewString(fmt.Sprintf("Customer %06d", id)),
		types.NewString(dataCities[h%uint64(len(dataCities))]),
		types.NewFloat(float64(h>>8%20000) / 10),
		types.NewString(fmt.Sprintf("19%02d-%02d-%02d", 70+h>>24%14, 1+h>>32%12, 1+h>>40%28)),
	}
}

// orderCustomer spreads orders over customers so that each customer has
// close to orders/customers of them.
func orderCustomer(id, customers int) int { return 1 + int(mix(uint64(id), 2)%uint64(customers)) }

// orderTotal is in whole cents so per-customer sums are exact in float64.
func orderTotal(id int) float64 { return float64(mix(uint64(id), 3)%100000) / 100 }

func orderTuple(id, customers int) types.Tuple {
	h := mix(uint64(id), 4)
	return types.Tuple{
		types.NewInt(int64(id)),
		types.NewInt(int64(orderCustomer(id, customers))),
		types.NewString(fmt.Sprintf("1983-%02d-%02d", 1+h%12, 1+h>>8%28)),
		types.NewFloat(orderTotal(id)),
	}
}

func itemQty(id int) int { return 1 + int(mix(uint64(id), 5)%9) }

func itemTuple(id int) types.Tuple {
	h := mix(uint64(id), 6)
	return types.Tuple{
		types.NewInt(int64(id)),
		types.NewInt(int64((id-1)/3 + 1)),
		types.NewString(dataItems[h%uint64(len(dataItems))]),
		types.NewInt(int64(itemQty(id))),
		types.NewFloat(float64(h>>16%10000) / 100),
	}
}

const (
	insertCustomerSQL = "INSERT INTO customers (id, name, city, credit, since) VALUES (?, ?, ?, ?, ?)"
	insertOrderSQL    = "INSERT INTO orders (id, customer_id, placed, total) VALUES (?, ?, ?, ?)"
	insertItemSQL     = "INSERT INTO order_items (id, order_id, item, qty, price) VALUES (?, ?, ?, ?, ?)"
)

// standardForms is the FDL source of the repository's standard forms; the
// browse workload opens its item_form.
const standardForms = std.StandardForms

// createSchema runs the standard schema on a fresh database.
func createSchema(db *engine.Database) error {
	s := db.Session()
	defer s.Close()
	if _, err := s.ExecuteScript(std.StandardSchema); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	return nil
}

// load inserts rows first..last of one table through array binding, batch
// rows to a transaction, and returns the encoded size of the tuples it wrote.
func load(s *engine.Session, insertSQL string, first, last, batch int, row func(id int) types.Tuple) (userBytes int64, err error) {
	stmt, err := s.Prepare(insertSQL)
	if err != nil {
		return 0, err
	}
	defer stmt.Close()
	rows := make([][]types.Value, 0, batch)
	for id := first; id <= last; id++ {
		t := row(id)
		userBytes += int64(len(types.EncodeTuple(nil, t)))
		rows = append(rows, t)
		if len(rows) == batch || id == last {
			if _, err := stmt.ExecBatch(rows); err != nil {
				return userBytes, fmt.Errorf("loading rows up to %d: %w", id, err)
			}
			rows = rows[:0]
		}
	}
	return userBytes, nil
}
