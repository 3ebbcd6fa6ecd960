// Package repro's top-level benchmarks: one benchmark per experiment in the
// paper's evaluation (E1–E8, see docs/ARCHITECTURE.md §8). Each benchmark
// measures the operation the corresponding table or figure reports, with
// workload setup outside the timed region; cmd/wowbench prints the full
// tables with the parameter sweeps.
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/workload"
)

// benchSizes keeps the benchmark database small enough that -bench=. finishes
// in a couple of minutes while still exercising the index paths.
var benchSizes = workload.Sizes{Customers: 2000, Orders: 10000, ItemsPerOrder: 2}

// newBenchEnv populates a database and compiles the standard forms.
func newBenchEnv(b *testing.B, sizes workload.Sizes) (*engine.Database, map[string]*core.Form) {
	b.Helper()
	db := engine.OpenMemory()
	if err := workload.Populate(db, sizes); err != nil {
		b.Fatal(err)
	}
	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		b.Fatal(err)
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}
	return db, byName
}

func openBenchWindow(b *testing.B, db *engine.Database, form *core.Form) (*core.Manager, *core.Window) {
	b.Helper()
	m := core.NewManager(db, 100, 30)
	w, err := m.Open(form, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m, w
}

// BenchmarkE1FormVsBaseline — Table 1: the same business operations through a
// form window and through hand-written SQL.
func BenchmarkE1FormVsBaseline(b *testing.B) {
	b.Run("FormInsert", func(b *testing.B) {
		db, forms := newBenchEnv(b, benchSizes)
		_, w := openBenchWindow(b, db, forms["customer_form"])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.BeginInsert(); err != nil {
				b.Fatal(err)
			}
			mustSet(b, w, "id", fmt.Sprintf("%d", benchSizes.Customers+1+i))
			mustSet(b, w, "name", "Bench Customer")
			mustSet(b, w, "city", "Boston")
			if err := w.Save(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BaselineInsert", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		app := baseline.New(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := app.InsertCustomer(benchSizes.Customers+1+i, "Bench Customer", "Boston", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FormLookup", func(b *testing.B) {
		db, forms := newBenchEnv(b, benchSizes)
		_, w := openBenchWindow(b, db, forms["customer_form"])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Query(map[string]string{"id": fmt.Sprintf("%d", 1+i%benchSizes.Customers)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BaselineLookup", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		app := baseline.New(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.LookupCustomer(1 + i%benchSizes.Customers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FormUpdate", func(b *testing.B) {
		db, forms := newBenchEnv(b, benchSizes)
		_, w := openBenchWindow(b, db, forms["customer_form"])
		if err := w.Query(map[string]string{"id": "1"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.BeginEdit(); err != nil {
				b.Fatal(err)
			}
			mustSet(b, w, "credit", fmt.Sprintf("%d", 100+i%1000))
			if err := w.Save(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BaselineUpdate", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		app := baseline.New(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := app.UpdateCredit(1, float64(100+i%1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustSet(b *testing.B, w *core.Window, field, text string) {
	b.Helper()
	if err := w.SetFieldText(field, text); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE2QueryByForm — Table 2: query-by-form latency at different
// selectivities and access paths.
func BenchmarkE2QueryByForm(b *testing.B) {
	cases := []struct {
		name     string
		patterns map[string]string
	}{
		{"KeyLookup", map[string]string{"id": "17"}},
		{"CityIndex", map[string]string{"city": workload.CityAt(0)}},
		{"Credit10pct", map[string]string{"credit": ">1800"}},
		{"Credit50pct", map[string]string{"credit": ">1000"}},
		{"NameLike", map[string]string{"name": "A%"}},
	}
	db, forms := newBenchEnv(b, benchSizes)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			_, w := openBenchWindow(b, db, forms["customer_form"])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Query(c.patterns); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.RowCount()), "rows")
		})
	}
}

// BenchmarkE3MasterDetail — Figure 1: detail refresh cost as the detail
// cardinality per master grows.
func BenchmarkE3MasterDetail(b *testing.B) {
	for _, detailRows := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("DetailRows%d", detailRows), func(b *testing.B) {
			db := engine.OpenMemory()
			s := db.Session()
			if _, err := s.ExecuteScript(workload.StandardSchema); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Execute("INSERT INTO customers (id, name, city, credit, since) VALUES (1, 'A', 'Boston', 1, '1983-01-01'), (2, 'B', 'Boston', 1, '1983-01-01')"); err != nil {
				b.Fatal(err)
			}
			orderID := 1
			for master := 1; master <= 2; master++ {
				for i := 0; i < detailRows; i++ {
					if _, err := s.Execute(fmt.Sprintf("INSERT INTO orders (id, customer_id, placed, total) VALUES (%d, %d, '1983-02-01', 1)", orderID, master)); err != nil {
						b.Fatal(err)
					}
					orderID++
				}
			}
			forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
			if err != nil {
				b.Fatal(err)
			}
			var customerForm *core.Form
			for _, f := range forms {
				if f.Def.Name == "customer_form" {
					customerForm = f
				}
			}
			_, w := openBenchWindow(b, db, customerForm)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					err = w.LastRow()
				} else {
					err = w.FirstRow()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4RefreshPropagation — Figure 2: the cost of one committed change
// while N other windows are open on the same table.
func BenchmarkE4RefreshPropagation(b *testing.B) {
	for _, windows := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("Windows%d", windows), func(b *testing.B) {
			db, forms := newBenchEnv(b, benchSizes)
			m := core.NewManager(db, 120, 40)
			writer, err := m.Open(forms["customer_form"], 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i < windows; i++ {
				w, err := m.Open(forms["customer_form"], 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Query(map[string]string{"city": workload.CityAt(i)}); err != nil {
					b.Fatal(err)
				}
			}
			m.Focus(writer)
			if err := writer.Query(map[string]string{"id": "1"}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := writer.BeginEdit(); err != nil {
					b.Fatal(err)
				}
				mustSet(b, writer, "credit", fmt.Sprintf("%d", 500+i%1000))
				if err := writer.Save(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.WindowsRefreshed())/float64(b.N), "windows-refreshed/op")
		})
	}
}

// BenchmarkE5ViewUpdate — Table 3: updating through a view versus directly.
func BenchmarkE5ViewUpdate(b *testing.B) {
	b.Run("DirectUpdate", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		if _, err := s.Execute("UPDATE customers SET credit = 900 WHERE id = 1"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(fmt.Sprintf("UPDATE customers SET credit = %d WHERE id = 1", 600+i%100)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ThroughView", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		if _, err := s.Execute("UPDATE customers SET credit = 900 WHERE id = 1"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(fmt.Sprintf("UPDATE good_customers SET credit = %d WHERE id = 1", 600+i%100)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FormOverView", func(b *testing.B) {
		db, forms := newBenchEnv(b, benchSizes)
		if _, err := db.Session().Execute("UPDATE customers SET credit = 900 WHERE id = 1"); err != nil {
			b.Fatal(err)
		}
		_, w := openBenchWindow(b, db, forms["good_customer_form"])
		if err := w.Query(map[string]string{"id": "1"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.BeginEdit(); err != nil {
				b.Fatal(err)
			}
			mustSet(b, w, "credit", fmt.Sprintf("%d", 600+i%100))
			if err := w.Save(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6Scrolling — Figure 3: per-keystroke scrolling cost at different
// table sizes (it should be flat).
func BenchmarkE6Scrolling(b *testing.B) {
	for _, rows := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("Rows%d", rows), func(b *testing.B) {
			db := engine.OpenMemory()
			if err := workload.Populate(db, workload.Sizes{Customers: 50, Orders: rows, ItemsPerOrder: 1}); err != nil {
				b.Fatal(err)
			}
			forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
			if err != nil {
				b.Fatal(err)
			}
			var orderForm *core.Form
			for _, f := range forms {
				if f.Def.Name == "order_form" {
					orderForm = f
				}
			}
			_, w := openBenchWindow(b, db, orderForm)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if (i/(rows-1))%2 == 0 {
					err = w.NextRow()
				} else {
					err = w.PrevRow()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			stats := w.Stats()
			b.ReportMetric(float64(stats.CellsPainted)/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkE7Concurrency — Table 4: concurrent form sessions inserting orders
// against table-granularity locking.
func BenchmarkE7Concurrency(b *testing.B) {
	db, forms := newBenchEnv(b, benchSizes)
	var nextID atomic.Int64
	nextID.Store(1 << 20)
	var aborts atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		m := core.NewManager(db, 100, 30)
		w, err := m.Open(forms["order_form"], 0, 0)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			id := nextID.Add(1)
			err := func() error {
				if err := w.BeginInsert(); err != nil {
					return err
				}
				if err := w.SetFieldText("id", fmt.Sprintf("%d", id)); err != nil {
					return err
				}
				if err := w.SetFieldText("customer_id", "1"); err != nil {
					return err
				}
				if err := w.SetFieldText("total", "10"); err != nil {
					return err
				}
				return w.Save()
			}()
			if err != nil {
				aborts.Add(1)
				w.Cancel()
			}
		}
	})
	b.ReportMetric(float64(aborts.Load()), "aborts")
}

// BenchmarkE8KeystrokeEconomy — Figure 4: keystrokes and repaint work per
// completed lookup task through the form interface, against the keystrokes an
// expert typing SQL would need.
func BenchmarkE8KeystrokeEconomy(b *testing.B) {
	b.Run("FormTask", func(b *testing.B) {
		db, forms := newBenchEnv(b, benchSizes)
		_, w := openBenchWindow(b, db, forms["customer_form"])
		script := workload.CustomerLookupScript("Boston", 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.HandleScript(script); err != nil {
				b.Fatal(err)
			}
		}
		stats := w.Stats()
		b.ReportMetric(float64(stats.Keystrokes)/float64(b.N), "keystrokes/op")
		b.ReportMetric(float64(stats.CellsPainted)/float64(b.N), "cells/op")
	})
	b.Run("SQLTask", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		app := baseline.New(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.CustomersInCity("Boston"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(app.KeystrokesTyped)/float64(b.N), "keystrokes/op")
	})
}

// BenchmarkPreparedVsExecute — the tentpole measurement for the prepared-
// statement API: the same parameterized point SELECT issued as fresh text
// every iteration (re-lex, re-parse, re-plan) versus prepared once and
// rebound. The prepared path must win: the whole front half of the engine
// drops out of the hot loop.
func BenchmarkPreparedVsExecute(b *testing.B) {
	b.Run("Execute", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Query(fmt.Sprintf("SELECT name, credit FROM customers WHERE id = %d", 1+i%benchSizes.Customers))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		stmt, err := s.Prepare("SELECT name, credit FROM customers WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := stmt.Exec(types.NewInt(int64(1 + i%benchSizes.Customers)))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	b.Run("PreparedCursor", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		stmt, err := s.Prepare("SELECT name, credit FROM customers WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := stmt.Query(types.NewInt(int64(1 + i%benchSizes.Customers)))
			if err != nil {
				b.Fatal(err)
			}
			if !rows.Next() {
				b.Fatal("expected a row")
			}
			rows.Close()
		}
	})
}

// BenchmarkPlannedWrites — the tentpole measurement for planned DML: a
// parameterized range UPDATE on the indexed key (the planner's index range
// scan, resolved from the bind frame at run time) versus the same statement
// as fresh text per iteration, and a bulk INSERT through ExecBatch array
// binding versus a loop of per-row autocommit statements.
func BenchmarkPlannedWrites(b *testing.B) {
	const batch = 100
	b.Run("RangeUpdatePrepared", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		stmt, err := s.Prepare("UPDATE orders SET total = ? WHERE id > ? AND id < ?")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(types.NewFloat(float64(i)), types.NewInt(0), types.NewInt(101)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RangeUpdateExecuteText", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(fmt.Sprintf("UPDATE orders SET total = %d WHERE id > 0 AND id < 101", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BatchInsert", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		stmt, err := s.Prepare("INSERT INTO orders (id, customer_id, placed, total) VALUES (?, ?, '1983-06-01', ?)")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		rows := make([][]types.Value, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range rows {
				rows[j] = []types.Value{
					types.NewInt(int64(1<<21 + i*batch + j)),
					types.NewInt(1),
					types.NewFloat(10),
				}
			}
			if _, err := stmt.ExecBatch(rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(batch, "rows/op")
	})
	b.Run("LoopInsert", func(b *testing.B) {
		db, _ := newBenchEnv(b, benchSizes)
		s := db.Session()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := s.Execute(fmt.Sprintf(
					"INSERT INTO orders (id, customer_id, placed, total) VALUES (%d, 1, '1983-06-01', 10)",
					1<<22+i*batch+j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(batch, "rows/op")
	})
}
