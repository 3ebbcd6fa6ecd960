// Package workload generates the synthetic data and interaction scripts the
// demos, examples and the paper's comparisons run on. The original evaluation
// used the authors' departmental data and live users at terminals; neither is
// available, so this package produces deterministic equivalents
// (docs/ARCHITECTURE.md §8): an order-processing database of configurable
// size and keystroke scripts for the business tasks the paper times.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/types"
)

// Sizes configures how much data Populate creates.
type Sizes struct {
	Customers     int
	Orders        int
	ItemsPerOrder int
}

// SmallSizes keeps unit tests and examples fast.
var SmallSizes = Sizes{Customers: 200, Orders: 1000, ItemsPerOrder: 2}

var (
	firstNames = []string{"Ada", "Bob", "Cyd", "Dee", "Eli", "Fay", "Gus", "Hal", "Ivy", "Joe",
		"Kim", "Lou", "Mia", "Ned", "Oda", "Pat", "Quin", "Rae", "Sal", "Tia"}
	lastNames = []string{"Adams", "Baker", "Clark", "Davis", "Evans", "Foster", "Gray", "Hayes",
		"Irwin", "Jones", "Klein", "Lewis", "Mason", "Noble", "Olson", "Price", "Quigley", "Reed", "Stone", "Tate"}
	cities = []string{"Boston", "Chicago", "Denver", "Austin", "Erie", "Fresno", "Gary", "Helena",
		"Ithaca", "Juneau", "Keene", "Lowell"}
	items = []string{"widget", "gadget", "sprocket", "flange", "gear", "bolt", "bracket", "valve",
		"switch", "relay", "socket", "spindle"}
)

// StandardSchema is the order-processing schema the demos, examples and
// benchmark use: the base tables, their secondary indexes, and two views a
// form can write through.
const StandardSchema = `
CREATE TABLE customers (
	id INT PRIMARY KEY,
	name TEXT NOT NULL,
	city TEXT,
	credit FLOAT DEFAULT 0,
	since DATE
);
CREATE INDEX customers_city ON customers (city);
CREATE TABLE orders (
	id INT PRIMARY KEY,
	customer_id INT NOT NULL,
	placed DATE,
	total FLOAT
);
CREATE INDEX orders_customer ON orders (customer_id);
CREATE TABLE order_items (
	id INT PRIMARY KEY,
	order_id INT NOT NULL,
	item TEXT NOT NULL,
	qty INT,
	price FLOAT
);
CREATE INDEX order_items_order ON order_items (order_id);
CREATE VIEW good_customers AS SELECT id, name, city, credit FROM customers WHERE credit >= 500;
CREATE VIEW boston_customers AS SELECT id, name, credit FROM customers WHERE city = 'Boston';
`

// StandardForms is the FDL source for the standard forms: a customer card
// with an order detail block, an order-line form, a form over the
// good_customers view, and a browse form over order_items, the largest table
// of the workload.
const StandardForms = `
form order_form on orders
  title "Orders"
  key id
  field id          width 8
  field customer_id width 8
  field placed      width 12
  field total       width 10 validate total >= 0 message "total cannot be negative"
end

form customer_form on customers
  title "Customer"
  size 76 22
  key id
  field id     at 2 12 width 8  label "Number"
  field name   at 3 12 width 26 label "Name"   required
  field city   at 4 12 width 16 label "City"
  field credit at 5 12 width 10 label "Credit" validate credit >= 0 message "credit cannot be negative"
  field since  at 6 12 width 12 label "Since"
  order by id
  detail order_form link customer_id = id rows 6 at 9 2
end

form good_customer_form on good_customers
  title "Good Customers"
  key id
  field id     width 8
  field name   width 26
  field city   width 16
  field credit width 10
  order by credit desc
end

form item_form on order_items
  title "Order Items"
  size 70 12
  key id
  field id       at 2 12 width 8  label "Line"
  field order_id at 3 12 width 8  label "Order"
  field item     at 4 12 width 12 label "Item"
  field qty      at 5 12 width 6  label "Qty"
  field price    at 6 12 width 10 label "Price"
  order by id
end
`

// tableLoad describes one table's synthetic load: the columns it fills and
// the generator for its i'th row. Generators share one seeded random stream,
// so the loads of one loads call must be consumed in slice order, each
// drained completely, for runs to be repeatable.
type tableLoad struct {
	name    string
	columns []string
	n       int
	row     func(i int) []types.Value
}

// loads returns the standard tables' loads for the given sizes. Whatever
// Source Populate fills, the rows come from this one stream, so a local and a
// remote database built at the same sizes hold identical rows.
func loads(sizes Sizes) []tableLoad {
	rng := rand.New(rand.NewSource(19830523))
	return []tableLoad{
		{
			name:    "customers",
			columns: []string{"id", "name", "city", "credit", "since"},
			n:       sizes.Customers,
			row: func(i int) []types.Value {
				name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
				city := cities[rng.Intn(len(cities))]
				credit := float64(rng.Intn(20000)) / 10
				day := 1 + rng.Intn(28)
				month := 1 + rng.Intn(12)
				return []types.Value{
					types.NewInt(int64(i + 1)),
					types.NewString(name),
					types.NewString(city),
					types.NewFloat(credit),
					types.NewString(fmt.Sprintf("19%02d-%02d-%02d", 70+rng.Intn(14), month, day)),
				}
			},
		},
		{
			name:    "orders",
			columns: []string{"id", "customer_id", "placed", "total"},
			n:       sizes.Orders,
			row: func(i int) []types.Value {
				customer := 1 + rng.Intn(sizes.Customers)
				total := float64(rng.Intn(100000)) / 100
				return []types.Value{
					types.NewInt(int64(i + 1)),
					types.NewInt(int64(customer)),
					types.NewString(fmt.Sprintf("1983-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
					types.NewFloat(total),
				}
			},
		},
		{
			name:    "order_items",
			columns: []string{"id", "order_id", "item", "qty", "price"},
			n:       sizes.Orders * sizes.ItemsPerOrder,
			row: func(i int) []types.Value {
				order := (i / sizes.ItemsPerOrder) + 1
				item := items[rng.Intn(len(items))]
				qty := 1 + rng.Intn(9)
				price := float64(rng.Intn(10000)) / 100
				return []types.Value{
					types.NewInt(int64(i + 1)),
					types.NewInt(int64(order)),
					types.NewString(item),
					types.NewInt(int64(qty)),
					types.NewFloat(price),
				}
			},
		},
	}
}

// batchRows is how many rows one INSERT .. VALUES statement of Populate
// carries. Past a few dozen rows a bigger batch saves fewer commits and round
// trips than its longer text and larger transaction cost: on 2 vCPUs,
// SmallSizes loads in about the same time at 25 and 50 rows and about 10 %
// slower at 100.
const batchRows = 50

// Populate creates the standard schema through src and fills it with
// deterministic synthetic data of the given size. The same sizes always
// produce the same rows (seeded generator), so runs are repeatable, whether
// src is a local engine session or a remote connection. The schema runs one
// statement at a time; each table loads in multi-row INSERT .. VALUES
// statements of batchRows rows with named parameters, one autocommit
// transaction — and over the wire one Run — per batch.
func Populate(src core.Source, sizes Sizes) error {
	stmts, err := sql.ParseAll(StandardSchema)
	if err != nil {
		return fmt.Errorf("workload: schema: %w", err)
	}
	for _, stmt := range stmts {
		if err := execOnce(src, stmt.String()); err != nil {
			return fmt.Errorf("workload: schema: %w", err)
		}
	}
	for _, load := range loads(sizes) {
		if err := load.insert(src); err != nil {
			return fmt.Errorf("workload: %s: %w", load.name, err)
		}
	}
	return nil
}

// execOnce prepares, runs and closes one statement.
func execOnce(src core.Source, text string) error {
	st, err := src.Prepare(text)
	if err != nil {
		return err
	}
	_, err = st.Exec()
	return errors.Join(err, st.Close())
}

// insert loads the table in batches of batchRows rows. A full batch and the
// shorter last one are the only statement texts, each prepared once.
func (l tableLoad) insert(src core.Source) (err error) {
	names := make([]string, batchRows*len(l.columns))
	for i := range names {
		names[i] = fmt.Sprintf("@p%d", i)
	}
	prepared := map[int]core.Statement{}
	defer func() {
		for _, st := range prepared {
			err = errors.Join(err, st.Close())
		}
	}()
	for start := 0; start < l.n; start += batchRows {
		rows := min(batchRows, l.n-start)
		st, ok := prepared[rows]
		if !ok {
			if st, err = src.Prepare(l.insertSQL(names, rows)); err != nil {
				return err
			}
			prepared[rows] = st
		}
		for r := 0; r < rows; r++ {
			for c, v := range l.row(start + r) {
				if err := st.BindNamed(names[r*len(l.columns)+c], v); err != nil {
					return err
				}
			}
		}
		if _, err := st.Exec(); err != nil {
			return err
		}
	}
	return nil
}

// insertSQL is the INSERT of rows rows whose values are the parameters names
// in row-major order.
func (l tableLoad) insertSQL(names []string, rows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES ", l.name, strings.Join(l.columns, ", "))
	for r := 0; r < rows; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(" + strings.Join(names[r*len(l.columns):(r+1)*len(l.columns)], ", ") + ")")
	}
	return b.String()
}

// --- interaction scripts ---------------------------------------------------

// CustomerLookupScript is the keystroke script for the "look up a customer by
// city and browse to one" task, through the form interface: enter query mode,
// fill the city field, execute, page through results.
func CustomerLookupScript(city string, pagesDown int) string {
	var b strings.Builder
	b.WriteString("<F2>")
	// Field order in customer_form: id, name, city, credit, since.
	b.WriteString("<TAB><TAB>")
	b.WriteString(city)
	b.WriteString("<F4>")
	for i := 0; i < pagesDown; i++ {
		b.WriteString("<PGDN>")
	}
	return b.String()
}

// CreditChangeScript is the keystroke script for the "change the current
// customer's credit" task: start editing the current row, move to the credit
// field, clear it, type the new value and save.
func CreditChangeScript(newCredit string) string {
	return "x<BACKSPACE><TAB><TAB><TAB><F3>" + newCredit + "<F6>"
}

// OrderEntryScript is the keystroke script for inserting one order through
// the order form.
func OrderEntryScript(orderID, customerID int, total string) string {
	return fmt.Sprintf("<F5>%d<TAB>%d<TAB>1983-06-01<TAB><F3>%s<F6>", orderID, customerID, total)
}
