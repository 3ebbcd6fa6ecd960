// Command wow is the forms workbench: it loads a SQL script and a form
// definition file, opens windows, and drives them either from a keystroke
// script (for repeatable demos) or from simple commands on standard input.
// After every step it prints the composited screen, so it works over a plain
// pipe as well as an interactive terminal.
//
// Usage:
//
//	wow -init schema.sql -forms app.fdl -open customer_card [-script "<F2>Boston<F4>"]
//	wow -demo            # built-in order-processing demo
//	wow -demo -connect 127.0.0.1:4045   # browse a (fresh) wowserver over the wire
//
// With -connect the windows browse a remote wowserver instead of an
// in-process database: every window query and write travels the wire
// protocol, and the window pager fetches one page per navigation step. The
// schema still loads locally (DDL only) so the forms can compile against a
// catalog; -demo additionally loads the demo workload into the remote server
// first (it must be empty), while -init runs the script on the server.
//
// Stdin commands (one per line) when no -script is given:
//
//	keys <script>     send keystrokes, e.g. "keys <F2>Boston<F4>"
//	open <form>       open another window
//	sql <statement>   run SQL directly (against the server with -connect)
//	screen            reprint the screen
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/workload"
)

// options carries the flag values, so tests can drive run directly.
type options struct {
	initPath, formsPath, open, script, connect string
	demo, ansi                                 bool
}

func main() {
	var opts options
	flag.StringVar(&opts.initPath, "init", "", "SQL script creating and loading the database")
	flag.StringVar(&opts.formsPath, "forms", "", "FDL file with the form definitions")
	flag.StringVar(&opts.open, "open", "", "form to open at startup")
	flag.StringVar(&opts.script, "script", "", "keystroke script to replay and exit")
	flag.BoolVar(&opts.demo, "demo", false, "run the built-in order-processing demo data")
	flag.StringVar(&opts.connect, "connect", "", "browse a remote wowserver at this address instead of an in-process database")
	flag.BoolVar(&opts.ansi, "ansi", false, "render with ANSI escape sequences instead of plain text")
	flag.Parse()
	os.Exit(run(opts, os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole workbench and returns the process exit code.
func run(opts options, stdin io.Reader, stdout, stderr io.Writer) int {
	if err := workbench(opts, stdin, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "wow:", err)
		return 1
	}
	return 0
}

// workbench opens the world, compiles the forms and opens the first window,
// then replays the keystroke script or serves commands from stdin.
func workbench(opts options, stdin io.Reader, stdout, stderr io.Writer) error {
	db := engine.OpenMemory()
	defer db.Close()
	session := db.Session()
	defer session.Close()

	// src is the world the windows and the sql command run on. With -connect
	// it is the server, and shadow the local database whose catalog the forms
	// compile against.
	src := core.NewEngineSource(session)
	var shadow core.Source
	if opts.connect != "" {
		remote, err := client.Dial(opts.connect)
		if err != nil {
			return err
		}
		defer remote.Close()
		fmt.Fprintf(stderr, "connected to %s (%s, protocol v%s)\n",
			opts.connect, remote.ServerBanner(), remote.ProtocolVersion())
		src, shadow = core.NewRemoteSource(remote), src
	}

	var formSource string
	switch {
	case opts.demo:
		if err := workload.Populate(src, workload.SmallSizes); err != nil {
			if shadow != nil {
				return fmt.Errorf("loading the demo workload into %s (is the server fresh?): %w", opts.connect, err)
			}
			return err
		}
		if shadow != nil {
			if _, err := session.ExecuteScript(workload.StandardSchema); err != nil {
				return err
			}
		}
		formSource = workload.StandardForms
		if opts.open == "" {
			opts.open = "customer_form"
		}
	default:
		if opts.initPath != "" {
			sqlBytes, err := os.ReadFile(opts.initPath)
			if err != nil {
				return err
			}
			if err := runInitScript(src, shadow, string(sqlBytes)); err != nil {
				return err
			}
		}
		if opts.formsPath == "" {
			return fmt.Errorf("either -forms or -demo is required")
		}
		fdlBytes, err := os.ReadFile(opts.formsPath)
		if err != nil {
			return err
		}
		formSource = string(fdlBytes)
	}

	forms, err := core.NewCompiler(db).CompileSource(formSource)
	if err != nil {
		return err
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}

	manager := core.NewManager(db, 100, 32)
	openWindow := func(form *core.Form) (*core.Window, error) {
		if shadow != nil {
			return manager.OpenOn(form, src, 0, 0)
		}
		return manager.Open(form, 0, 0)
	}
	if opts.open != "" {
		form, ok := byName[strings.ToLower(opts.open)]
		if !ok {
			return fmt.Errorf("no form named %q (have %s)", opts.open, strings.Join(slices.Sorted(maps.Keys(byName)), ", "))
		}
		if _, err := openWindow(form); err != nil {
			return err
		}
	}

	printScreen := func() {
		if opts.ansi {
			fmt.Fprint(stdout, manager.Screen().RenderANSI())
		} else {
			fmt.Fprintln(stdout, manager.Screen().String())
		}
	}
	printScreen()

	if opts.script != "" {
		if err := manager.HandleScript(opts.script); err != nil {
			return err
		}
		printScreen()
		return nil
	}

	scanner := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "wow> ")
		if !scanner.Scan() {
			return nil
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		command, rest, _ := strings.Cut(line, " ")
		switch strings.ToLower(command) {
		case "quit", "exit":
			return nil
		case "screen":
			printScreen()
		case "keys":
			if err := manager.HandleScript(rest); err != nil {
				fmt.Fprintln(stderr, "error:", err)
			}
			printScreen()
		case "open":
			form, ok := byName[strings.ToLower(strings.TrimSpace(rest))]
			if !ok {
				fmt.Fprintf(stderr, "no form named %q\n", rest)
				continue
			}
			if _, err := openWindow(form); err != nil {
				fmt.Fprintln(stderr, "error:", err)
			}
			printScreen()
		case "sql":
			if err := runSQL(src, rest, stdout); err != nil {
				fmt.Fprintln(stderr, "error:", err)
			}
		default:
			fmt.Fprintln(stderr, "commands: keys <script> | open <form> | sql <stmt> | screen | quit")
		}
	}
}

// runInitScript runs the -init SQL on src statement by statement. With
// -connect, the schema statements (CREATE ...) also run on shadow, the local
// database, so the forms have a catalog to compile against.
func runInitScript(src, shadow core.Source, script string) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		text := stmt.String()
		if _, err := execSQL(src, text); err != nil {
			return fmt.Errorf("%s: %w", text, err)
		}
		switch stmt.(type) {
		case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt:
			if shadow == nil {
				continue
			}
			if _, err := execSQL(shadow, text); err != nil {
				return fmt.Errorf("local shadow catalog: %s: %w", text, err)
			}
		}
	}
	return nil
}

// runSQL runs one ad-hoc statement, dispatched on what it parses as: a SELECT
// prints its rows as the cursor yields them, and anything else runs through
// Exec and prints the rows a RETURNING clause or an EXPLAIN returned, or else
// its message. Never try Query and then Exec: a write would run twice.
func runSQL(src core.Source, text string, out io.Writer) error {
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		res, err := execSQL(src, text)
		if err != nil {
			return err
		}
		if len(res.Columns) == 0 && res.Message != "" {
			fmt.Fprintln(out, res.Message)
		}
		for _, row := range res.Rows {
			fmt.Fprintln(out, row.String())
		}
		return nil
	}
	st, err := src.Prepare(text)
	if err != nil {
		return err
	}
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		fmt.Fprintln(out, rows.Row().String())
	}
	return rows.Err()
}

// execSQL prepares text on src, runs it through Exec and closes it.
func execSQL(src core.Source, text string) (core.ExecSummary, error) {
	st, err := src.Prepare(text)
	if err != nil {
		return core.ExecSummary{}, err
	}
	defer st.Close()
	return st.Exec()
}
