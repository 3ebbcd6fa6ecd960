// Command wowsql is the SQL shell over the engine: it reads statements
// (from files given on the command line, or from standard input) and prints
// results as aligned tables.
//
// Usage:
//
//	wowsql [-data file.db] [-wal file.wal] [-connect host:port] [script.sql ...]
//
// With no script arguments, statements are read from standard input, one per
// line (or separated by semicolons). "EXPLAIN <statement>" prints the plan
// for any SELECT, INSERT, UPDATE or DELETE instead of running it. With
// -connect the shell runs against a wowserver over the wire protocol instead
// of an embedded engine; the handshake's negotiated protocol version is
// reported on stderr.
//
// Interactively, a statement error is printed and the shell keeps reading.
// Non-interactively — script files, or statements piped on standard input —
// the first error stops execution and wowsql exits non-zero, so shell
// pipelines and CI steps can rely on the exit code.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/types"
)

// options carries the flag values plus the interactivity decision, so tests
// can drive run directly.
type options struct {
	dataPath string
	walPath  string
	connect  string
	scripts  []string
	// interactive selects prompt-and-continue error handling; main sets it
	// when stdin is a terminal and no script files were given.
	interactive bool
}

func main() {
	dataPath := flag.String("data", "", "spill file for evicted pages, removed on exit; not durable, only -wal persists (default: in-memory)")
	walPath := flag.String("wal", "", "write-ahead log file, the only durable state (default: in-memory)")
	connect := flag.String("connect", "", "wowserver address; run remotely over the wire protocol")
	flag.Parse()

	opts := options{
		dataPath: *dataPath,
		walPath:  *walPath,
		connect:  *connect,
		scripts:  flag.Args(),
	}
	if len(opts.scripts) == 0 {
		if info, err := os.Stdin.Stat(); err == nil && info.Mode()&os.ModeCharDevice != 0 {
			opts.interactive = true
		}
	}
	os.Exit(run(opts, os.Stdin, os.Stdout, os.Stderr))
}

// executor runs one script's worth of statements — against the embedded
// engine or a remote server — writing results to out.
type executor interface {
	runScript(script string, out io.Writer) error
	close() error
}

// run is the whole shell: it opens the executor, feeds it scripts or stdin,
// and returns the process exit code.
func run(opts options, stdin io.Reader, stdout, stderr io.Writer) int {
	var exec executor
	if opts.connect != "" {
		conn, err := client.Dial(opts.connect)
		if err != nil {
			// Dial already shapes version trouble into legible errors: a
			// *wire.VersionError names both ends' versions, a
			// *client.HandshakeError explains a pre-v2 server.
			fmt.Fprintln(stderr, "wowsql:", err)
			return 1
		}
		// The banner goes to stderr so piped statement output stays clean.
		fmt.Fprintf(stderr, "wowsql: connected to %s (protocol v%s, %s)\n",
			opts.connect, conn.ProtocolVersion(), conn.ServerBanner())
		exec = &remoteExecutor{conn: conn}
	} else {
		db, err := engine.Open(engine.Options{DataPath: opts.dataPath, WALPath: opts.walPath})
		if err != nil {
			fmt.Fprintln(stderr, "wowsql:", err)
			return 1
		}
		exec = &localExecutor{db: db, session: db.Session()}
	}
	defer exec.close()

	if len(opts.scripts) > 0 {
		for _, path := range opts.scripts {
			script, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(stderr, "wowsql:", err)
				return 1
			}
			if err := exec.runScript(string(script), stdout); err != nil {
				fmt.Fprintln(stderr, "wowsql:", err)
				return 1
			}
		}
		return 0
	}

	if opts.interactive {
		fmt.Fprintln(stdout, "wowsql — type SQL statements, end them with ';'. Ctrl-D to quit.")
	}
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pending strings.Builder
	for {
		if opts.interactive {
			fmt.Fprint(stdout, "wow> ")
		}
		if !scanner.Scan() {
			break
		}
		pending.WriteString(scanner.Text())
		pending.WriteByte('\n')
		if !strings.Contains(scanner.Text(), ";") {
			continue
		}
		if err := exec.runScript(pending.String(), stdout); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			if !opts.interactive {
				return 1
			}
		}
		pending.Reset()
	}
	// A scan error (a line over the buffer limit) is not end of input: report
	// it and fail, or a pipeline would treat a half-run script as success.
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(stderr, "wowsql: reading input:", err)
		return 1
	}
	// A trailing statement without ";" still runs (echo "SELECT 1" | wowsql).
	if strings.TrimSpace(pending.String()) != "" {
		if err := exec.runScript(pending.String(), stdout); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			if !opts.interactive {
				return 1
			}
		}
	}
	return 0
}

// --- embedded engine ---------------------------------------------------------

type localExecutor struct {
	db      *engine.Database
	session *engine.Session
}

func (e *localExecutor) close() error {
	e.session.Close()
	return e.db.Close()
}

// runScript executes the script one statement at a time. SELECTs run through
// a prepared statement's streaming cursor, printing rows as they are pulled —
// a query over a huge table starts printing immediately instead of
// materialising first. EXPLAIN <statement> renders the plan the engine would
// run — for SELECT and DML alike — without executing it. Everything else
// executes and prints its outcome.
func (e *localExecutor) runScript(script string, out io.Writer) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		switch stmt := stmt.(type) {
		case *sql.SelectStmt:
			if err := e.streamSelect(stmt.String(), out); err != nil {
				return err
			}
		case *sql.ExplainStmt:
			if err := e.explainStatement(stmt, out); err != nil {
				return err
			}
		default:
			res, err := e.session.Execute(stmt.String())
			if err != nil {
				return err
			}
			printResult(out, res.Columns, res.Rows, res.Message())
		}
	}
	return nil
}

// explainStatement prints the plan tree of the wrapped statement through the
// prepared statement's ExplainPlan, which covers INSERT, UPDATE and DELETE as
// well as SELECT. Preparing the EXPLAIN text (not the inner statement) keeps
// the engine on its render-only path — the plan is built and cached, but no
// operator tree is compiled.
func (e *localExecutor) explainStatement(stmt *sql.ExplainStmt, out io.Writer) error {
	prepared, err := e.session.Prepare(stmt.String())
	if err != nil {
		return err
	}
	defer prepared.Close()
	text := prepared.ExplainPlan()
	if text == "" {
		return fmt.Errorf("EXPLAIN is not supported for %s", stmt.Stmt.String())
	}
	fmt.Fprint(out, text)
	return nil
}

// streamSelect prints a SELECT's rows straight off the cursor. Column widths
// come from the header (and grow per row as needed), since the rows are not
// buffered for measuring.
func (e *localExecutor) streamSelect(query string, out io.Writer) error {
	stmt, err := e.session.Prepare(query)
	if err != nil {
		return err
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil {
		return err
	}
	defer rows.Close()
	count, err := streamRows(out, rows.Columns(), rows.Next, rows.Row, rows.Err)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "(%d row(s))\n", count)
	return nil
}

// --- remote server -----------------------------------------------------------

type remoteExecutor struct {
	conn *client.Conn
}

func (e *remoteExecutor) close() error { return e.conn.Close() }

// runScript splits the script locally (the parser is in the same tree) and
// runs each statement over the wire: SELECTs stream through a remote cursor
// in fetch batches, everything else — DML, DDL, EXPLAIN, BEGIN/COMMIT — round
// trips through Exec and prints the materialised result.
func (e *remoteExecutor) runScript(script string, out io.Writer) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if sel, ok := stmt.(*sql.SelectStmt); ok {
			if err := e.streamSelect(sel.String(), out); err != nil {
				return err
			}
			continue
		}
		res, err := e.conn.Exec(stmt.String())
		if err != nil {
			return err
		}
		message := res.Message
		if message == "" && len(res.Columns) == 0 {
			message = fmt.Sprintf("%d row(s) affected", res.RowsAffected)
		}
		printResult(out, res.Columns, res.Rows, message)
	}
	return nil
}

func (e *remoteExecutor) streamSelect(query string, out io.Writer) error {
	rows, err := e.conn.Query(query)
	if err != nil {
		return err
	}
	defer rows.Close()
	count, err := streamRows(out, rows.Columns(), rows.Next, rows.Row, rows.Err)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "(%d row(s))\n", count)
	return nil
}

// --- rendering ---------------------------------------------------------------

// streamRows prints a header and then rows as the cursor yields them,
// returning how many were printed. It works over both the engine's and the
// client's cursor shape.
func streamRows(out io.Writer, columns []string, next func() bool, row func() types.Tuple, rowsErr func() error) (int, error) {
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
		if widths[i] < 8 {
			widths[i] = 8
		}
	}
	printAligned(out, widths, columns)
	printSeparator(out, widths)
	count := 0
	for next() {
		r := row()
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = formatValue(v)
		}
		printAligned(out, widths, cells)
		count++
	}
	return count, rowsErr()
}

func printAligned(out io.Writer, widths []int, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprintf("%-*s", widths[i], c)
	}
	fmt.Fprintln(out, strings.Join(parts, " | "))
}

func printSeparator(out io.Writer, widths []int) {
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	fmt.Fprintln(out, strings.Join(sep, "-+-"))
}

func printResult(out io.Writer, columns []string, rows []types.Tuple, message string) {
	if len(columns) == 0 {
		if message != "" {
			fmt.Fprintln(out, message)
		}
		return
	}
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(rows))
	for r, row := range rows {
		rendered[r] = make([]string, len(row))
		for i, v := range row {
			rendered[r][i] = formatValue(v)
			if len(rendered[r][i]) > widths[i] {
				widths[i] = len(rendered[r][i])
			}
		}
	}
	printAligned(out, widths, columns)
	printSeparator(out, widths)
	for _, row := range rendered {
		printAligned(out, widths, row)
	}
	fmt.Fprintf(out, "(%d row(s))\n", len(rows))
}

func formatValue(v types.Value) string {
	if v.IsNull() {
		return ""
	}
	return v.String()
}
