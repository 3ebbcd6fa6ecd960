// Order entry: the workload the paper's introduction motivates — a clerk
// keeps a customer card open with that customer's orders in a detail block,
// looks customers up by form, enters orders, and is protected by validation
// rules and triggers. The whole session is driven by keystroke scripts, so
// the example runs unattended and prints what the clerk would see.
//
// Run with: go run ./examples/orderentry
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func main() {
	// A populated order-processing database (200 customers, 1000 orders).
	db := engine.OpenMemory()
	if err := workload.Populate(core.NewEngineSource(db.Session()), workload.SmallSizes); err != nil {
		log.Fatal(err)
	}
	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		log.Fatal(err)
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}

	manager := core.NewManager(db, 100, 30)
	card, err := manager.Open(byName["customer_form"], 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Look up the customers of Boston by form and walk to the first one.
	fmt.Println("== customer lookup by form (city = Boston) ==")
	if err := card.HandleScript(workload.CustomerLookupScript("Boston", 0)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d Boston customers; current card:\n\n%s\n", card.RowCount(), card.Screen().String())

	// 2. Enter a new order for the current customer through the order form.
	current, _ := card.CurrentRow()
	customerID := current[0].Int()
	orderWindow, err := manager.Open(byName["order_form"], 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== entering a new order ==")
	if err := orderWindow.HandleScript(workload.OrderEntryScript(90001, int(customerID), "249.99")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("order form status:", orderWindow.Status())

	// The customer card's detail block refreshed automatically (the window
	// manager propagated the orders write).
	manager.Focus(card)
	fmt.Printf("\ncustomer card after the order was entered (detail shows the new order):\n\n%s\n", card.Screen().String())

	// 3. Validation and triggers protect the data: a negative order total is
	// rejected by the form's validation rule before any SQL runs.
	fmt.Println("== validation ==")
	if err := orderWindow.HandleScript(workload.OrderEntryScript(90002, int(customerID), "-5")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("attempt to save a negative total:", orderWindow.Status())

	// 4. Session statistics. Every window refresh
	// above ran through a prepared statement the window holds on to, so after
	// the first refresh of each query shape the plan cache serves the rest.
	fmt.Printf("\ncard window stats:  %+v\n", card.Stats())
	fmt.Printf("order window stats: %+v\n", orderWindow.Stats())
	fmt.Printf("windows refreshed by propagation: %d\n", manager.WindowsRefreshed())
	stats := db.Stats()
	fmt.Printf("engine: %d statements prepared, plan cache %d hits / %d misses, %d rows streamed\n",
		stats.StatementsPrepared, stats.PlanCacheHits, stats.PlanCacheMisses, stats.RowsStreamed)
}
