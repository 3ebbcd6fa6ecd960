package baseline

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/types"
)

// App is the hand-coded order-processing application.
type App struct {
	session *engine.Session
	// KeystrokesTyped accumulates the length of every statement an
	// interactive user would have typed (statement text plus the terminating
	// return), for the keystroke-economy comparison.
	KeystrokesTyped uint64
	// Statements counts the SQL statements issued.
	Statements uint64
}

// New creates the baseline application over its own session.
func New(db *engine.Database) *App {
	return &App{session: db.Session()}
}

// exec runs a statement, charging its text to the keystroke counter.
func (a *App) exec(statement string) (*engine.Result, error) {
	a.KeystrokesTyped += uint64(len(statement)) + 1 // + return key
	a.Statements++
	return a.session.Execute(statement)
}

// query runs a SELECT, charging its text to the keystroke counter.
func (a *App) query(statement string) (*engine.Result, error) {
	a.KeystrokesTyped += uint64(len(statement)) + 1
	a.Statements++
	return a.session.Query(statement)
}

// InsertCustomer adds a customer row.
func (a *App) InsertCustomer(id int, name, city string, credit float64) error {
	_, err := a.exec(fmt.Sprintf(
		"INSERT INTO customers (id, name, city, credit, since) VALUES (%d, '%s', '%s', %.2f, '1983-06-01')",
		id, name, city, credit))
	return err
}

// LookupCustomer fetches one customer by primary key.
func (a *App) LookupCustomer(id int) (types.Tuple, error) {
	res, err := a.query(fmt.Sprintf("SELECT * FROM customers WHERE id = %d", id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("baseline: no customer %d", id)
	}
	return res.Rows[0], nil
}

// CustomersInCity lists the customers of one city, as the lookup task does.
func (a *App) CustomersInCity(city string) ([]types.Tuple, error) {
	res, err := a.query(fmt.Sprintf("SELECT * FROM customers WHERE city = '%s' ORDER BY id", city))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// UpdateCredit changes one customer's credit.
func (a *App) UpdateCredit(id int, credit float64) error {
	res, err := a.exec(fmt.Sprintf("UPDATE customers SET credit = %.2f WHERE id = %d", credit, id))
	if err != nil {
		return err
	}
	if res.RowsAffected != 1 {
		return fmt.Errorf("baseline: customer %d not found", id)
	}
	return nil
}

// DeleteCustomer removes a customer.
func (a *App) DeleteCustomer(id int) error {
	_, err := a.exec(fmt.Sprintf("DELETE FROM customers WHERE id = %d", id))
	return err
}

// PlaceOrder inserts an order row.
func (a *App) PlaceOrder(orderID, customerID int, total float64) error {
	_, err := a.exec(fmt.Sprintf(
		"INSERT INTO orders (id, customer_id, placed, total) VALUES (%d, %d, '1983-06-01', %.2f)",
		orderID, customerID, total))
	return err
}

// OrdersFor lists a customer's orders (the master/detail task).
func (a *App) OrdersFor(customerID int) ([]types.Tuple, error) {
	res, err := a.query(fmt.Sprintf("SELECT * FROM orders WHERE customer_id = %d ORDER BY id", customerID))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// CustomerWithOrders runs the combined lookup the master/detail window shows:
// the customer row plus all of that customer's orders.
func (a *App) CustomerWithOrders(customerID int) (types.Tuple, []types.Tuple, error) {
	customer, err := a.LookupCustomer(customerID)
	if err != nil {
		return nil, nil, err
	}
	orders, err := a.OrdersFor(customerID)
	if err != nil {
		return nil, nil, err
	}
	return customer, orders, nil
}
