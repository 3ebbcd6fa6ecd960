package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func newApp(t *testing.T) (*App, *engine.Database) {
	t.Helper()
	db := engine.OpenMemory()
	if err := workload.Populate(core.NewEngineSource(db.Session()), workload.SmallSizes); err != nil {
		t.Fatal(err)
	}
	return New(db), db
}

func TestBusinessOperations(t *testing.T) {
	app, db := newApp(t)
	nextID := workload.SmallSizes.Customers + 1

	if err := app.InsertCustomer(nextID, "New Co", "Boston", 250); err != nil {
		t.Fatal(err)
	}
	row, err := app.LookupCustomer(nextID)
	if err != nil || row[1].Str() != "New Co" {
		t.Fatalf("lookup = %v, %v", row, err)
	}
	if err := app.UpdateCredit(nextID, 750); err != nil {
		t.Fatal(err)
	}
	row, _ = app.LookupCustomer(nextID)
	if row[3].Float() != 750 {
		t.Errorf("credit = %v", row[3])
	}
	if err := app.PlaceOrder(900001, nextID, 42.50); err != nil {
		t.Fatal(err)
	}
	customer, orders, err := app.CustomerWithOrders(nextID)
	if err != nil || customer[0].Int() != int64(nextID) || len(orders) != 1 {
		t.Errorf("master/detail = %v, %d orders, %v", customer, len(orders), err)
	}
	inCity, err := app.CustomersInCity("Boston")
	if err != nil || len(inCity) == 0 {
		t.Errorf("city lookup = %d rows, %v", len(inCity), err)
	}
	if err := app.DeleteCustomer(nextID); err != nil {
		t.Fatal(err)
	}
	if _, err := app.LookupCustomer(nextID); err == nil {
		t.Error("deleted customer still found")
	}
	if err := app.UpdateCredit(nextID, 1); err == nil {
		t.Error("updating a missing customer should fail")
	}
	if app.KeystrokesTyped == 0 || app.Statements < 8 {
		t.Errorf("stats = %d keys, %d statements", app.KeystrokesTyped, app.Statements)
	}
	_ = db
}
