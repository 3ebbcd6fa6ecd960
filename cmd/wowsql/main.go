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
// for any SELECT, INSERT, UPDATE or DELETE instead of running it, as a table
// with one "plan" column. With -connect the shell runs against a wowserver
// over the wire protocol instead of an embedded engine, and prints the same
// output; the handshake's negotiated protocol version is reported on stderr.
// -connect cannot be combined with -data or -wal, which name local files.
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

	"repro/internal/core"
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

// run is the whole shell: it opens the source, feeds it scripts or stdin, and
// returns the process exit code.
func run(opts options, stdin io.Reader, stdout, stderr io.Writer) int {
	if opts.connect != "" && (opts.dataPath != "" || opts.walPath != "") {
		fmt.Fprintln(stderr, "wowsql: -connect runs on the server's database; it cannot be combined with -data or -wal")
		return 1
	}
	src, closeSource, err := openSource(opts, stderr)
	if err != nil {
		// Dial already shapes version trouble into legible errors: a
		// *wire.VersionError names both ends' versions, a
		// *client.HandshakeError explains a pre-v2 server.
		fmt.Fprintln(stderr, "wowsql:", err)
		return 1
	}
	defer closeSource()

	if len(opts.scripts) > 0 {
		for _, path := range opts.scripts {
			script, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(stderr, "wowsql:", err)
				return 1
			}
			if err := runScript(src, string(script), stdout); err != nil {
				fmt.Fprintln(stderr, "wowsql:", err)
				return 1
			}
		}
		return 0
	}

	if opts.interactive {
		fmt.Fprintln(stdout, "wowsql — type SQL statements, end them with ';'. Ctrl-D to quit.")
	}
	// runPending runs the statements read so far and reports whether the
	// shell goes on: interactively it always does, after printing the error.
	var pending strings.Builder
	runPending := func() bool {
		err := runScript(src, pending.String(), stdout)
		pending.Reset()
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
		}
		return err == nil || opts.interactive
	}
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for {
		if opts.interactive {
			fmt.Fprint(stdout, "wow> ")
		}
		if !scanner.Scan() {
			break
		}
		pending.WriteString(scanner.Text())
		pending.WriteByte('\n')
		if strings.Contains(scanner.Text(), ";") && !runPending() {
			return 1
		}
	}
	// A scan error (a line over the buffer limit) is not end of input: report
	// it and fail, or a pipeline would treat a half-run script as success.
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(stderr, "wowsql: reading input:", err)
		return 1
	}
	// A trailing statement without ";" still runs (echo "SELECT 1" | wowsql).
	if strings.TrimSpace(pending.String()) != "" && !runPending() {
		return 1
	}
	return 0
}

// openSource opens the world the shell runs on: a wowserver's with -connect,
// reporting the negotiated protocol on stderr so piped output stays clean,
// and otherwise an engine in this process. The returned function closes it.
func openSource(opts options, stderr io.Writer) (core.Source, func() error, error) {
	if opts.connect != "" {
		conn, err := client.Dial(opts.connect)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "wowsql: connected to %s (protocol v%s, %s)\n",
			opts.connect, conn.ProtocolVersion(), conn.ServerBanner())
		return core.NewRemoteSource(conn), conn.Close, nil
	}
	db, err := engine.Open(engine.Options{DataPath: opts.dataPath, WALPath: opts.walPath})
	if err != nil {
		return nil, nil, err
	}
	session := db.Session()
	return core.NewEngineSource(session), func() error {
		session.Close()
		return db.Close()
	}, nil
}

// runScript runs the script one statement at a time, locally and remotely
// alike. A SELECT prints its rows as its cursor yields them, so a query over
// a huge table starts printing at once instead of materialising first. Every
// other statement — DML, DDL, EXPLAIN, transaction control — runs through
// Exec and prints its outcome: a message, or the rows a RETURNING clause or
// an EXPLAIN returned.
func runScript(src core.Source, script string, out io.Writer) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if err := runStatement(src, stmt, out); err != nil {
			return err
		}
	}
	return nil
}

func runStatement(src core.Source, stmt sql.Statement, out io.Writer) error {
	st, err := src.Prepare(stmt.String())
	if err != nil {
		return err
	}
	defer st.Close()
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		res, err := st.Exec()
		if err != nil {
			return err
		}
		printResult(out, res.Columns, res.Rows, res.Message)
		return nil
	}
	rows, err := st.Query()
	if err != nil {
		return err
	}
	defer rows.Close()
	// Both sources' cursors, *engine.Rows and *client.Rows, name their
	// columns: those of the plan that ran.
	columns := rows.(interface{ Columns() []string }).Columns()
	count, err := streamRows(out, columns, rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "(%d row(s))\n", count)
	return nil
}

// --- rendering ---------------------------------------------------------------

// streamRows prints a header and then rows as the cursor yields them,
// returning how many were printed.
func streamRows(out io.Writer, columns []string, rows core.RowStream) (int, error) {
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
	for rows.Next() {
		r := rows.Row()
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = formatValue(v)
		}
		printAligned(out, widths, cells)
		count++
	}
	return count, rows.Err()
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
