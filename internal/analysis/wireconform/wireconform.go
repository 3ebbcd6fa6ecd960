// Package wireconform proves the wire protocol's exhaustiveness invariant:
// every Msg* constant the codec declares must be dispatched by the server
// (client→server messages need a `case wire.MsgX:` arm in a dispatch
// switch), handled by the client, and documented in docs/WIRE.md. Protocol
// drift — a constant added to wire.go but forgotten in the server switch,
// or removed from the spec but still emitted — is exactly the class of bug
// integration tests miss until a third-party client hits it.
//
// The analyzer runs once over the whole program: it collects the wire
// package's Msg* constants, checks docs/WIRE.md for each, and checks the
// server and client packages' references against the same list.
package wireconform

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the wireconform pass.
var Analyzer = &analysis.Analyzer{
	Name:       "wireconform",
	Doc:        "every Msg* wire constant must have a server dispatch arm, client handling, and a docs/WIRE.md entry",
	RunProgram: run,
}

// Package path suffixes locating the three parties to the protocol.
const (
	wirePkg   = "internal/server/wire"
	serverPkg = "internal/server"
	clientPkg = "internal/server/client"
)

// s2cBase divides the message-type space: values >= s2cBase flow
// server-to-client, values below it client-to-server.
const s2cBase = 0x20

// msgConst is one wire message constant, with its declaration site.
type msgConst struct {
	name  string
	value uint8
	pos   token.Pos
}

func (m msgConst) isC2S() bool { return m.value < s2cBase }

// trimmed is the spec-facing name: the constant without its Msg prefix
// ("MsgPrepare" is written as `Prepare` in docs/WIRE.md).
func (m msgConst) trimmed() string { return strings.TrimPrefix(m.name, "Msg") }

func run(pass *analysis.ProgramPass) error {
	var wire, server, client *analysis.LoadedPackage
	for _, pkg := range pass.Prog.Packages {
		switch {
		case pkg.Nested:
		case analysis.PathHasSuffix(pkg.Path, wirePkg):
			wire = pkg
		case analysis.PathHasSuffix(pkg.Path, serverPkg):
			server = pkg
		case analysis.PathHasSuffix(pkg.Path, clientPkg):
			client = pkg
		}
	}
	if wire == nil {
		return nil
	}
	msgs := wireMsgs(pass, wire)
	if len(msgs) == 0 {
		return nil
	}
	checkSpec(pass, msgs)
	if server != nil {
		checkServer(pass, server, msgs)
	}
	if client != nil {
		checkClient(pass, client, msgs)
	}
	return nil
}

// --- wire package: collect constants, check the spec -------------------------

// wireMsgs returns the wire package's Msg* constants in type-byte order,
// reporting any that reuse another's type byte.
func wireMsgs(pass *analysis.ProgramPass, wire *analysis.LoadedPackage) []msgConst {
	var msgs []msgConst
	byValue := make(map[uint8]string)
	for _, file := range sourceFiles(pass, wire) {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Msg") {
						continue
					}
					c, ok := wire.Info.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					v, exact := constant.Uint64Val(c.Val())
					if !exact || v > 0xff {
						continue
					}
					m := msgConst{name: name.Name, value: uint8(v), pos: name.Pos()}
					if prev, dup := byValue[m.value]; dup {
						pass.Reportf(m.pos, "%s reuses message type 0x%02x, already assigned to %s", m.name, m.value, prev)
					} else {
						byValue[m.value] = m.name
					}
					msgs = append(msgs, m)
				}
			}
		}
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].value < msgs[j].value })
	return msgs
}

// checkSpec requires docs/WIRE.md to contain, for every message, a line
// carrying both the backticked spec name and the hex type byte (a table row
// like "| 0x01 | `Prepare` |" or a heading item like "**`Stmt` (0x21)**").
func checkSpec(pass *analysis.ProgramPass, msgs []msgConst) {
	data, err := os.ReadFile(filepath.Join(pass.Prog.ModuleDir, "docs", "WIRE.md"))
	if err != nil {
		pass.Reportf(msgs[0].pos, "wire constants are declared but the protocol spec docs/WIRE.md is missing: %v", err)
		return
	}
	lines := strings.Split(string(data), "\n")
	for _, m := range msgs {
		name := "`" + m.trimmed() + "`"
		hex := formatByte(m.value)
		found := false
		for _, line := range lines {
			if strings.Contains(line, name) && strings.Contains(strings.ToLower(line), hex) {
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(m.pos, "%s (%s) has no entry in docs/WIRE.md: the spec needs a line naming %s with its type byte %s",
				m.name, hex, name, hex)
		}
	}
}

func formatByte(v uint8) string {
	const digits = "0123456789abcdef"
	return "0x" + string(digits[v>>4]) + string(digits[v&0xf])
}

// --- server package: dispatch arms + response encoding -----------------------

func checkServer(pass *analysis.ProgramPass, server *analysis.LoadedPackage, msgs []msgConst) {
	files := sourceFiles(pass, server)
	// Every constant named in a case clause of any switch in the package.
	dispatched := make(map[string]bool)
	var firstSwitch token.Pos
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, clause := range sw.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if name, ok := wireConstRef(server.Info, e); ok {
						if firstSwitch == token.NoPos {
							firstSwitch = sw.Pos()
						}
						dispatched[name] = true
					}
				}
			}
			return true
		})
	}

	referenced := wireConstUses(server.Info, files)
	for _, m := range msgs {
		if m.isC2S() {
			if !dispatched[m.name] {
				pos := firstSwitch
				if pos == token.NoPos {
					pos = server.Files[0].Name.Pos()
				}
				pass.Reportf(pos, "server dispatch has no `case wire.%s:` arm; every client-to-server message (here %s, %s) must be dispatched or explicitly rejected",
					m.name, m.name, formatByte(m.value))
			}
		} else if !referenced[m.name] {
			pass.Reportf(server.Files[0].Name.Pos(), "server never encodes %s (%s); every server-to-client message must have an encode site",
				m.name, formatByte(m.value))
		}
	}
}

// --- client package: full coverage -------------------------------------------

func checkClient(pass *analysis.ProgramPass, client *analysis.LoadedPackage, msgs []msgConst) {
	referenced := wireConstUses(client.Info, sourceFiles(pass, client))
	for _, m := range msgs {
		if referenced[m.name] {
			continue
		}
		verb := "encodes"
		if !m.isC2S() {
			verb = "decodes"
		}
		pass.Reportf(client.Files[0].Name.Pos(), "client never %s %s (%s); the client must cover the full message set",
			verb, m.name, formatByte(m.value))
	}
}

// --- shared helpers ----------------------------------------------------------

// wireConstRef reports whether e references a Msg* constant of the wire
// package, returning its name.
func wireConstRef(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || !strings.HasPrefix(c.Name(), "Msg") {
		return "", false
	}
	if !analysis.PathHasSuffix(c.Pkg().Path(), wirePkg) {
		return "", false
	}
	return c.Name(), true
}

// wireConstUses collects every wire Msg* constant name the files reference
// anywhere.
func wireConstUses(info *types.Info, files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if name, ok := wireConstRef(info, e); ok {
					out[name] = true
				}
			}
			return true
		})
	}
	return out
}

// sourceFiles returns the package's non-test files.
func sourceFiles(pass *analysis.ProgramPass, pkg *analysis.LoadedPackage) []*ast.File {
	var out []*ast.File
	for _, file := range pkg.Files {
		if !strings.HasSuffix(pass.Prog.Fset.Position(file.Pos()).Filename, "_test.go") {
			out = append(out, file)
		}
	}
	return out
}
