// Directory: several windows on the same world. A browse window shows the
// customers of one city, a second window shows the "good customers" view, and
// a third is used to change a credit limit. When the change commits, the
// window manager refreshes every window whose contents it affects — the
// behaviour the paper's title describes.
//
// Run with: go run ./examples/directory
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/workload"
)

func main() {
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

	manager := core.NewManager(db, 120, 33)

	// Window 1: customers of Boston (query by form).
	boston, err := manager.Open(byName["customer_form"], 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := boston.Query(map[string]string{"city": "Boston"}); err != nil {
		log.Fatal(err)
	}

	// Window 2: the good_customers view (credit >= 500), bound read-write
	// because the view is updatable.
	good, err := manager.Open(byName["good_customer_form"], 0, 40)
	if err != nil {
		log.Fatal(err)
	}

	// Window 3: the card we will edit.
	editor, err := manager.Open(byName["customer_form"], 10, 10)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("before: %d Boston customers, %d good customers\n", boston.RowCount(), good.RowCount())

	// Find a Boston customer who is not yet a good customer and raise their
	// credit above the view's threshold, through the editor window. The lookup
	// is a prepared parameterized query with a streaming cursor closed after
	// the first row.
	lookup, err := db.Session().Prepare("SELECT id FROM customers WHERE city = @city AND credit < @limit ORDER BY id LIMIT 1")
	if err != nil {
		log.Fatal(err)
	}
	defer lookup.Close()
	rows, err := lookup.Query(types.NewString("Boston"), types.NewFloat(500))
	if err != nil {
		log.Fatal(err)
	}
	if !rows.Next() {
		log.Fatal("no candidate customer found")
	}
	var target int64
	if err := rows.Scan(&target); err != nil {
		log.Fatal(err)
	}
	rows.Close()
	if err := editor.Query(map[string]string{"id": fmt.Sprintf("%d", target)}); err != nil {
		log.Fatal(err)
	}
	manager.Focus(editor)
	if err := editor.HandleScript(workload.CreditChangeScript("2000")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("editor status after saving: %s\n", editor.Status())

	// Both other windows were refreshed by the manager: the customer now
	// appears in the good-customers window without anyone touching it.
	fmt.Printf("after:  %d Boston customers, %d good customers\n", boston.RowCount(), good.RowCount())
	fmt.Printf("windows refreshed by propagation: %d (across %d write notifications)\n\n",
		manager.WindowsRefreshed(), manager.PropagationCount())

	// Show the composite screen with all three windows.
	fmt.Println(manager.Screen().String())
}
