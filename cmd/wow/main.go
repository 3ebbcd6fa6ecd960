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
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/workload"
)

func main() {
	initPath := flag.String("init", "", "SQL script creating and loading the database")
	formsPath := flag.String("forms", "", "FDL file with the form definitions")
	open := flag.String("open", "", "form to open at startup")
	script := flag.String("script", "", "keystroke script to replay and exit")
	demo := flag.Bool("demo", false, "run the built-in order-processing demo data")
	connect := flag.String("connect", "", "browse a remote wowserver at this address instead of an in-process database")
	ansi := flag.Bool("ansi", false, "render with ANSI escape sequences instead of plain text")
	flag.Parse()

	db := engine.OpenMemory()
	session := db.Session()

	var remote *client.Conn
	if *connect != "" {
		var err error
		remote, err = client.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer remote.Close()
		fmt.Fprintf(os.Stderr, "connected to %s (%s, protocol v%s)\n",
			*connect, remote.ServerBanner(), remote.ProtocolVersion())
	}

	var formSource string
	switch {
	case *demo:
		if remote != nil {
			// Load the demo workload into the server over the connection the
			// windows browse on, and the schema DDL into the local shadow
			// catalog for form compilation.
			if err := workload.Populate(core.NewRemoteSource(remote), workload.SmallSizes); err != nil {
				fatal(fmt.Errorf("loading the demo workload into %s (is the server fresh?): %w", *connect, err))
			}
			if _, err := session.ExecuteScript(workload.StandardSchema); err != nil {
				fatal(err)
			}
		} else if err := workload.Populate(core.NewEngineSource(session), workload.SmallSizes); err != nil {
			fatal(err)
		}
		formSource = workload.StandardForms
		if *open == "" {
			*open = "customer_form"
		}
	default:
		if *initPath != "" {
			sqlBytes, err := os.ReadFile(*initPath)
			if err != nil {
				fatal(err)
			}
			if err := runInitScript(session, remote, string(sqlBytes)); err != nil {
				fatal(err)
			}
		}
		if *formsPath == "" {
			fatal(fmt.Errorf("either -forms or -demo is required"))
		}
		fdlBytes, err := os.ReadFile(*formsPath)
		if err != nil {
			fatal(err)
		}
		formSource = string(fdlBytes)
	}

	forms, err := core.NewCompiler(db).CompileSource(formSource)
	if err != nil {
		fatal(err)
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}

	manager := core.NewManager(db, 100, 32)
	openWindow := func(form *core.Form) (*core.Window, error) {
		if remote != nil {
			return manager.OpenOn(form, core.NewRemoteSource(remote), 0, 0)
		}
		return manager.Open(form, 0, 0)
	}
	if *open != "" {
		form, ok := byName[strings.ToLower(*open)]
		if !ok {
			fatal(fmt.Errorf("no form named %q (have %s)", *open, strings.Join(formNames(byName), ", ")))
		}
		if _, err := openWindow(form); err != nil {
			fatal(err)
		}
	}

	printScreen := func() {
		if *ansi {
			fmt.Print(manager.Screen().RenderANSI())
		} else {
			fmt.Println(manager.Screen().String())
		}
	}
	printScreen()

	if *script != "" {
		if err := manager.HandleScript(*script); err != nil {
			fatal(err)
		}
		printScreen()
		return
	}

	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("wow> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		command, rest, _ := strings.Cut(line, " ")
		switch strings.ToLower(command) {
		case "quit", "exit":
			return
		case "screen":
			printScreen()
		case "keys":
			if err := manager.HandleScript(rest); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			printScreen()
		case "open":
			form, ok := byName[strings.ToLower(strings.TrimSpace(rest))]
			if !ok {
				fmt.Fprintf(os.Stderr, "no form named %q\n", rest)
				continue
			}
			if _, err := openWindow(form); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			printScreen()
		case "sql":
			if remote != nil {
				runRemoteSQL(remote, rest)
				continue
			}
			stmt, err := session.Prepare(rest)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			if len(stmt.Columns()) > 0 {
				// A SELECT: stream the rows off the cursor.
				rows, err := stmt.Query()
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					stmt.Close()
					continue
				}
				for rows.Next() {
					fmt.Println(rows.Row().String())
				}
				if err := rows.Err(); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
				rows.Close()
				stmt.Close()
				continue
			}
			res, err := stmt.Exec()
			stmt.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			if res.Message() != "" {
				fmt.Println(res.Message())
			}
		default:
			fmt.Fprintln(os.Stderr, "commands: keys <script> | open <form> | sql <stmt> | screen | quit")
		}
	}
}

func formNames(byName map[string]*core.Form) []string {
	var names []string
	for name := range byName {
		names = append(names, name)
	}
	return names
}

// runInitScript runs the -init SQL. Locally the whole script executes; with
// -connect it executes statement by statement on the server, and the schema
// statements (CREATE ...) additionally run on the local shadow database so
// the forms have a catalog to compile against.
func runInitScript(session *engine.Session, remote *client.Conn, source string) error {
	if remote == nil {
		_, err := session.ExecuteScript(source)
		return err
	}
	stmts, err := sql.ParseAll(source)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		text := stmt.String()
		if _, err := remote.Exec(text); err != nil {
			return fmt.Errorf("remote: %s: %w", text, err)
		}
		switch stmt.(type) {
		case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt:
			if _, err := session.Execute(text); err != nil {
				return fmt.Errorf("local shadow catalog: %s: %w", text, err)
			}
		}
	}
	return nil
}

// runRemoteSQL runs one ad-hoc statement against the server, streaming
// SELECT rows in fetch batches. The statement is prepared once and
// dispatched on its column list — never try-Query-then-Exec, which would
// execute DML twice (the server runs a non-query on the first attempt
// before the client sees it is not a cursor).
func runRemoteSQL(remote *client.Conn, text string) {
	stmt, err := remote.Prepare(text)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	defer stmt.Close()
	if len(stmt.Columns()) > 0 {
		rows, err := stmt.Query()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		for rows.Next() {
			fmt.Println(rows.Row().String())
		}
		if err := rows.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		rows.Close()
		return
	}
	res, err := stmt.Exec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wow:", err)
	os.Exit(1)
}
