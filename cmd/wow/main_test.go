package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

// startServer serves a fresh in-memory database on a loopback port until the
// test ends and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	db := engine.OpenMemory()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return ln.Addr().String()
}

// runWow drives run() with the given stdin and returns what it printed.
func runWow(t *testing.T, opts options, input string) (stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(opts, strings.NewReader(input), &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	return out.String(), errOut.String()
}

// worlds returns the -connect value of each world the workbench runs on: the
// in-process database, and a fresh in-process wowserver.
func worlds(t *testing.T) map[string]string {
	return map[string]string{"local": "", "remote": startServer(t)}
}

// TestDemoQueriesBoston replays a QBF query on the demo's customer form: F2
// enters query mode, Boston goes into the city field and F4 runs it. Against
// the server, -demo loads the workload over the same connection the window
// browses on (workload.Populate in multi-row INSERT batches).
func TestDemoQueriesBoston(t *testing.T) {
	for name, addr := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			stdout, _ := runWow(t, options{demo: true, connect: addr, script: "<F2><TAB><TAB>Boston<F4>"}, "")
			// The seeded data puts 20 customers in Boston, Dee Stone first.
			for _, want := range []string{"20 row(s) selected", "Dee Stone"} {
				if !strings.Contains(stdout, want) {
					t.Errorf("the screen lacks %q:\n%s", want, stdout)
				}
			}
		})
	}
}

// TestSQLCommandExplains: the sql command runs an EXPLAIN, which has a "plan"
// column but returns its rows through Exec, and prints every statement the
// same way in both worlds.
func TestSQLCommandExplains(t *testing.T) {
	const input = `sql EXPLAIN SELECT * FROM customers WHERE id = 3
sql UPDATE customers SET credit = 7 WHERE id = 3 RETURNING id, name, credit
sql DELETE FROM order_items WHERE id = 1
sql SELECT id, credit FROM customers WHERE id <= 3 ORDER BY id
quit
`
	out := map[string]string{}
	for name, addr := range worlds(t) {
		stdout, stderr := runWow(t, options{demo: true, connect: addr}, input)
		if strings.Contains(stderr, "error") {
			t.Fatalf("%s: stderr = %q", name, stderr)
		}
		out[name] = stdout
	}
	if out["local"] != out["remote"] {
		t.Fatalf("local and remote output differ\n--- local\n%s--- remote\n%s", out["local"], out["remote"])
	}
	for _, want := range []string{"index lookup on customers_pkey", "(3, Dee Tate, 7)", "1 row(s) deleted", "(3, 7)"} {
		if !strings.Contains(out["local"], want) {
			t.Errorf("stdout lacks %q:\n%s", want, out["local"])
		}
	}
}

// TestInitScriptRunsInTheWindowsWorld: -init runs its script where the windows
// browse, and with -connect its schema also reaches the local catalog the
// forms compile against, so the rows it inserted on the server show.
func TestInitScriptRunsInTheWindowsWorld(t *testing.T) {
	dir := t.TempDir()
	initPath, formsPath := filepath.Join(dir, "init.sql"), filepath.Join(dir, "app.fdl")
	script := workload.StandardSchema + `
INSERT INTO customers VALUES (1, 'Ann Init', 'Boston', 900, '1980-01-01'), (2, 'Bo Init', 'Salem', 10, '1981-02-02');`
	if err := os.WriteFile(initPath, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(formsPath, []byte(workload.StandardForms), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, addr := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			stdout, _ := runWow(t, options{initPath: initPath, formsPath: formsPath, open: "customer_form", connect: addr},
				"sql SELECT name FROM customers ORDER BY id\nquit\n")
			for _, want := range []string{"row 1 of 2", "Ann Init", "(Bo Init)"} {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
		})
	}
}
