package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

// runShell drives run() the way main does for piped input.
func runShell(t *testing.T, opts options, input string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(opts, strings.NewReader(input), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestPipedStatementsExitZeroOnSuccess(t *testing.T) {
	code, stdout, stderr := runShell(t, options{}, `
CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
INSERT INTO t VALUES (1, 'one'), (2, 'two');
SELECT id, name FROM t ORDER BY id;
`)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "one") || !strings.Contains(stdout, "(2 row(s))") {
		t.Fatalf("stdout = %q", stdout)
	}
}

// TestPipedErrorExitsNonZero is the regression test for the seed behaviour
// where a failing statement in piped mode still exited 0.
func TestPipedErrorExitsNonZero(t *testing.T) {
	code, stdout, stderr := runShell(t, options{}, `
CREATE TABLE t (id INT PRIMARY KEY);
INSERT INTO missing VALUES (1);
SELECT * FROM t;
`)
	if code == 0 {
		t.Fatalf("exit code = 0 after a failing statement; stderr = %q", stderr)
	}
	if !strings.Contains(stderr, "missing") {
		t.Fatalf("stderr = %q, want the error mentioning the missing table", stderr)
	}
	// Execution stops at the error: the following SELECT must not have run.
	if strings.Contains(stdout, "row(s)") {
		t.Fatalf("statements after the error still ran: %q", stdout)
	}
}

func TestPipedParseErrorExitsNonZero(t *testing.T) {
	code, _, stderr := runShell(t, options{}, "SELEKT nonsense;\n")
	if code == 0 {
		t.Fatalf("exit code = 0 for a parse error; stderr = %q", stderr)
	}
}

func TestTrailingStatementWithoutSemicolonRuns(t *testing.T) {
	code, stdout, _ := runShell(t, options{}, "CREATE TABLE t (id INT PRIMARY KEY);\nSELECT id FROM t")
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(stdout, "(0 row(s))") {
		t.Fatalf("trailing statement did not run: %q", stdout)
	}
}

func TestInteractiveErrorKeepsReading(t *testing.T) {
	code, stdout, stderr := runShell(t, options{interactive: true}, `
CREATE TABLE t (id INT PRIMARY KEY);
INSERT INTO missing VALUES (1);
INSERT INTO t VALUES (7);
SELECT id FROM t;
`)
	if code != 0 {
		t.Fatalf("interactive shell exit code = %d", code)
	}
	if !strings.Contains(stderr, "missing") {
		t.Fatalf("stderr = %q", stderr)
	}
	if !strings.Contains(stdout, "(1 row(s))") {
		t.Fatalf("statements after the interactive error did not run: %q", stdout)
	}
}

func TestOversizedInputLineExitsNonZero(t *testing.T) {
	// A line beyond the scanner buffer is a read error, not end of input; the
	// statements after it never ran, so the exit code must say so.
	huge := "INSERT INTO t VALUES (1, '" + strings.Repeat("x", 2<<20) + "');"
	code, _, stderr := runShell(t, options{}, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT);\n"+huge+"\n")
	if code == 0 {
		t.Fatalf("exit code = 0 after an oversized input line; stderr = %q", stderr)
	}
	if !strings.Contains(stderr, "reading input") {
		t.Fatalf("stderr = %q, want a read error", stderr)
	}
}

func TestScriptFileErrorExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.sql")
	if err := os.WriteFile(path, []byte("INSERT INTO missing VALUES (1);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runShell(t, options{scripts: []string{path}}, "")
	if code == 0 {
		t.Fatalf("exit code = 0 for a failing script; stderr = %q", stderr)
	}
}

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

func TestRemoteModeRoundTrip(t *testing.T) {
	addr := startServer(t)
	code, stdout, stderr := runShell(t, options{connect: addr}, `
CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
INSERT INTO t VALUES (1, 'remote row');
SELECT id, name FROM t;
BEGIN;
INSERT INTO t VALUES (2, 'rolled back');
ROLLBACK;
SELECT id FROM t;
`)
	if code != 0 {
		t.Fatalf("remote shell exit code = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "remote row") {
		t.Fatalf("stdout = %q", stdout)
	}
	if !strings.Contains(stdout, "(1 row(s))") || strings.Contains(stdout, "(2 row(s))") {
		t.Fatalf("rollback over the wire did not take effect: %q", stdout)
	}
	// RETURNING renders like a SELECT over the wire: a header and a row count.
	code, stdout, stderr = runShell(t, options{connect: addr}, `
INSERT INTO t VALUES (2, 'second row');
UPDATE t SET name = 'shipped' WHERE id >= 1 RETURNING id, name;
`)
	if code != 0 {
		t.Fatalf("remote RETURNING exit code = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "id | name") || !strings.Contains(stdout, "(2 row(s))") {
		t.Fatalf("RETURNING over the wire should print its columns and 2 rows: %q", stdout)
	}
	// An error over the wire exits non-zero too.
	code, _, stderr = runShell(t, options{connect: addr}, "INSERT INTO missing VALUES (1);\n")
	if code == 0 {
		t.Fatalf("remote error exit code = 0; stderr = %q", stderr)
	}
}

// TestLocalAndRemoteOutputsAreIdentical: one statement path serves both
// worlds, so a script prints the same bytes in process and over the wire —
// EXPLAIN included, which renders as a one-column plan table either way.
func TestLocalAndRemoteOutputsAreIdentical(t *testing.T) {
	const script = `
CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
CREATE INDEX t_name ON t (name);
INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
EXPLAIN SELECT id FROM t WHERE name = 'two';
EXPLAIN UPDATE t SET name = 'x' WHERE id = 2;
UPDATE t SET name = 'shipped' WHERE id >= 2 RETURNING id, name;
SELECT id, name FROM t ORDER BY id;
BEGIN;
DELETE FROM t WHERE id = 1;
ROLLBACK;
SELECT COUNT(*) FROM t;
`
	code, local, stderr := runShell(t, options{}, script)
	if code != 0 {
		t.Fatalf("local exit code = %d, stderr = %q", code, stderr)
	}
	code, remote, stderr := runShell(t, options{connect: startServer(t)}, script)
	if code != 0 {
		t.Fatalf("remote exit code = %d, stderr = %q", code, stderr)
	}
	if local != remote {
		t.Fatalf("local and remote output differ\n--- local\n%s--- remote\n%s", local, remote)
	}
	for _, want := range []string{"plan", "index lookup on t_name", "shipped", "ROLLBACK", "3 row(s) inserted"} {
		if !strings.Contains(local, want) {
			t.Errorf("output lacks %q:\n%s", want, local)
		}
	}
}

// TestConnectRefusesLocalFiles: -data and -wal name files of a local engine,
// which a -connect shell never opens; combining them is an error, not a
// silent no-op.
func TestConnectRefusesLocalFiles(t *testing.T) {
	addr := startServer(t)
	dir := t.TempDir()
	for _, opts := range []options{
		{connect: addr, dataPath: filepath.Join(dir, "x.db")},
		{connect: addr, walPath: filepath.Join(dir, "x.wal")},
	} {
		code, stdout, stderr := runShell(t, opts, "CREATE TABLE t (id INT PRIMARY KEY);\n")
		if code == 0 {
			t.Fatalf("%+v: exit code = 0, stdout = %q", opts, stdout)
		}
		if !strings.Contains(stderr, "cannot be combined with -data or -wal") {
			t.Errorf("%+v: stderr = %q, want the refusal", opts, stderr)
		}
		if strings.Contains(stderr, "connected to") {
			t.Errorf("%+v: the shell dialed the server before refusing: %q", opts, stderr)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused shell created %d file(s)", len(entries))
	}
}
