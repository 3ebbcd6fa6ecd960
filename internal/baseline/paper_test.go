package baseline

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tui"
	"repro/internal/workload"
)

// The paper's two comparisons against the hand-coded application: what a
// form window costs on top of the identical database work (E1), and how many
// keystrokes a business task costs through a form versus typed SQL (E8).

// formEnv populates the standard workload and opens a window of the named
// standard form over it, beside a hand-coded App on the same database.
func formEnv(tb testing.TB, form string) (*core.Window, *App) {
	tb.Helper()
	db := engine.OpenMemory()
	if err := workload.Populate(core.NewEngineSource(db.Session()), workload.SmallSizes); err != nil {
		tb.Fatal(err)
	}
	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range forms {
		if f.Def.Name == form {
			w, err := core.NewManager(db, 100, 30).Open(f, 0, 0)
			if err != nil {
				tb.Fatal(err)
			}
			return w, New(db)
		}
	}
	tb.Fatalf("no standard form %q", form)
	return nil, nil
}

// firstFreeID is the first customer id the workload leaves unused.
var firstFreeID = workload.SmallSizes.Customers + 1

// e1Op is one business operation of the paper's Table 1, done through a
// customer_form window and through the hand-coded application. Operation i
// of a run of n must not depend on any other path having run.
type e1Op struct {
	name string
	// setup prepares a run of n operations, outside the measured region.
	setup func(w *core.Window, app *App, n int) error
	form  func(w *core.Window, i int) error
	hand  func(app *App, i int) error
}

var e1Ops = []e1Op{
	{
		name: "insert",
		form: func(w *core.Window, i int) error {
			if err := w.BeginInsert(); err != nil {
				return err
			}
			if err := setFields(w, "id", strconv.Itoa(firstFreeID+i), "name", "Form Customer", "city", "Boston"); err != nil {
				return err
			}
			return w.Save()
		},
		hand: func(app *App, i int) error {
			return app.InsertCustomer(firstFreeID+i, "Hand Customer", "Boston", 0)
		},
	},
	{
		name: "lookup",
		form: func(w *core.Window, i int) error {
			return w.Query(map[string]string{"id": strconv.Itoa(1 + i%workload.SmallSizes.Customers)})
		},
		hand: func(app *App, i int) error {
			_, err := app.LookupCustomer(1 + i%workload.SmallSizes.Customers)
			return err
		},
	},
	{
		name: "update",
		setup: func(w *core.Window, _ *App, _ int) error {
			return w.Query(map[string]string{"id": "1"})
		},
		form: func(w *core.Window, i int) error {
			// Typing into a browsing window starts editing its current row.
			if err := setFields(w, "credit", strconv.Itoa(100+i%1000)); err != nil {
				return err
			}
			return w.Save()
		},
		hand: func(app *App, i int) error {
			return app.UpdateCredit(1, float64(100+i%1000))
		},
	},
	{
		name: "delete",
		setup: func(_ *core.Window, app *App, n int) error {
			for i := 0; i < n; i++ {
				if err := app.InsertCustomer(firstFreeID+i, "Doomed", "Boston", 0); err != nil {
					return err
				}
			}
			return nil
		},
		form: func(w *core.Window, i int) error {
			if err := w.Query(map[string]string{"id": strconv.Itoa(firstFreeID + i)}); err != nil {
				return err
			}
			deleted := w.Stats().Deletes
			if err := w.HandleKey(deleteKey); err != nil {
				return err
			}
			if w.Stats().Deletes != deleted+1 {
				return fmt.Errorf("delete through the form failed: %s", w.Status())
			}
			return nil
		},
		hand: func(app *App, i int) error {
			return app.DeleteCustomer(firstFreeID + i)
		},
	},
}

// prepare opens a fresh database for a run of n operations of op.
func (op e1Op) prepare(tb testing.TB, n int) (*core.Window, *App) {
	tb.Helper()
	w, app := formEnv(tb, "customer_form")
	if op.setup != nil {
		if err := op.setup(w, app, n); err != nil {
			tb.Fatal(err)
		}
	}
	return w, app
}

// deleteKey is F7, the form's delete-current-row key.
var deleteKey = tui.Event{Key: tui.KeyF7}

// setFields types each (field, text) pair into the window's buffer.
func setFields(w *core.Window, pairs ...string) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := w.SetFieldText(pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkFormVsHandCoded is E1, the paper's Table 1: each business
// operation through a form window and through hand-written SQL, each on its
// own freshly populated database.
func BenchmarkFormVsHandCoded(b *testing.B) {
	for _, op := range e1Ops {
		b.Run(op.name+"/form", func(b *testing.B) {
			w, _ := op.prepare(b, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.form(w, i); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(op.name+"/hand-coded", func(b *testing.B) {
			_, app := op.prepare(b, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.hand(app, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFormOverheadIsBounded checks E1's qualitative claim: the form layer
// costs more than the hand-coded SQL it issues, but by a modest factor, not
// by orders of magnitude.
func TestFormOverheadIsBounded(t *testing.T) {
	const n, bound = 30, 100
	timed := func(fn func(i int) error) time.Duration {
		t.Helper()
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for _, op := range e1Ops {
		w, _ := op.prepare(t, n)
		form := timed(func(i int) error { return op.form(w, i) })
		_, app := op.prepare(t, n)
		hand := timed(func(i int) error { return op.hand(app, i) })
		ratio := float64(form) / float64(hand)
		t.Logf("%s: form %v/op, hand-coded %v/op, %.1fx", op.name, form/n, hand/n, ratio)
		if ratio > bound {
			t.Errorf("%s: form overhead %.1fx exceeds %dx", op.name, ratio, bound)
		}
	}
}

// TestFormsNeedFewerKeystrokes checks E8, the paper's interface-economy
// claim: each business task takes fewer keystrokes through its form than
// typing the equivalent SQL does.
func TestFormsNeedFewerKeystrokes(t *testing.T) {
	tasks := []struct {
		name, form string
		position   map[string]string // a query run before counting, or nil
		script     string
		sql        func(app *App) error
	}{
		{"customer lookup by city", "customer_form", nil,
			workload.CustomerLookupScript("Boston", 2),
			func(app *App) error { _, err := app.CustomersInCity("Boston"); return err }},
		{"change credit limit", "customer_form", map[string]string{"id": "7"},
			workload.CreditChangeScript("1250"),
			func(app *App) error { return app.UpdateCredit(7, 1250) }},
		{"enter a new order", "order_form", nil,
			workload.OrderEntryScript(900001, 3, "125.50"),
			func(app *App) error { return app.PlaceOrder(900002, 3, 125.50) }},
	}
	for _, task := range tasks {
		w, app := formEnv(t, task.form)
		if task.position != nil {
			if err := w.Query(task.position); err != nil {
				t.Fatal(err)
			}
		}
		before := w.Stats().Keystrokes
		if err := w.HandleScript(task.script); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(w.Status(), "error") {
			t.Fatalf("%s through the form failed: %s", task.name, w.Status())
		}
		formKeys := w.Stats().Keystrokes - before
		if err := task.sql(app); err != nil {
			t.Fatal(err)
		}
		sqlKeys := app.KeystrokesTyped
		t.Logf("%s: form %d keys, SQL %d keys (%.1fx); status %q", task.name, formKeys, sqlKeys, float64(sqlKeys)/float64(formKeys), w.Status())
		if formKeys == 0 || formKeys >= sqlKeys {
			t.Errorf("%s: form took %d keystrokes, SQL %d; the form should need fewer", task.name, formKeys, sqlKeys)
		}
	}
}
