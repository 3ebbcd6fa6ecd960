// Package core implements the paper's contribution: windows on the world —
// screen windows that are live, updatable views onto relations.
//
// The package has three parts:
//
//   - the form compiler (this file), which binds a parsed form definition
//     (package fdl) to the catalog: planning the relation, which gives the
//     form its schema, the tables it reads and — from the planner's write
//     target — whether and where a Save writes, then resolving the fields,
//     the key, validation rules, computed fields, triggers and master/detail
//     links;
//   - the window runtime (window.go, qbf.go, pager.go), which gives each
//     open form a paging cursor over its current rows — a bounded buffer
//     fetched page by page through keyset predicates on the engine's
//     streaming cursors, never the materialised result — plus an edit
//     buffer, query-by-form, and the translation of saves and deletes into
//     SQL against the bound relation (through updatable views when the form
//     is bound to one). Windows run over a Source (source.go): a local
//     engine session or a remote wowserver connection, same code path;
//   - the window manager (wm.go), which keeps any number of windows open,
//     routes keystrokes, composites them onto one screen, and propagates
//     refreshes so that every window showing changed data is brought up to
//     date after a commit.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/fdl"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// Field is one compiled form field.
type Field struct {
	// Def is the field's definition.
	Def fdl.FieldDef
	// Column is the schema position the field is bound to (-1 for computed
	// fields).
	Column int
	// Kind is the field's value domain.
	Kind types.Kind
	// Default is the compiled default expression (nil when none). It is
	// evaluated against the row being built, so defaults may reference other
	// fields.
	Default *expr.Compiled
	// Validate is the compiled validation predicate (nil when none).
	Validate *expr.Compiled
	// Value is the compiled expression of a computed field.
	Value *expr.Compiled
}

// name returns the field's name (its column, or its display name when
// computed).
func (f *Field) name() string { return f.Def.Column }

// Trigger is a compiled trigger.
type Trigger struct {
	Def   fdl.TriggerDef
	Check *expr.Compiled
}

// DetailLink connects a master form to a compiled detail form.
type DetailLink struct {
	Def fdl.DetailDef
	// Child is the compiled detail form.
	Child *Form
	// ChildColumn is the linking column's position in the child's schema.
	ChildColumn int
	// ParentColumn is the linking column's position in the master's schema.
	ParentColumn int
}

// Form is a compiled form: a form definition bound to the catalog. Its
// relation, table or view, is one keyed relation: planned once, with a key
// that orders and identifies its rows.
type Form struct {
	// Def is the parsed definition.
	Def *fdl.FormDef
	// Relation is the bound relation's name (table or view).
	Relation string
	// BaseTable names the table a Save writes: the relation itself for a
	// table, the view's base table for an updatable view, "" for a
	// read-only form.
	BaseTable string
	// Tables names the base tables the relation reads; a window refreshes
	// when any of them changes.
	Tables []string
	// Schema is the relation's schema as the form sees it.
	Schema *types.Schema
	// Fields are the compiled fields in definition order.
	Fields []*Field
	// Key is the positions (in Schema) of the columns identifying a row. It
	// is never empty: it completes the window's order and addresses writes.
	Key []int
	// FilterExpr is the static filter (nil when none), composed into the
	// window's query.
	FilterExpr sql.Expr
	// order is the window's total order: the declared ORDER BY, then the key
	// columns it leaves out, ending where the key is complete.
	order []pagerKey
	// Triggers are the compiled triggers.
	Triggers []*Trigger
	// Details are resolved master/detail links.
	Details []*DetailLink
}

// fieldByName finds a compiled field by name.
func (f *Form) fieldByName(name string) (*Field, bool) {
	lower := strings.ToLower(name)
	for _, field := range f.Fields {
		if field.Def.Column == lower {
			return field, true
		}
	}
	return nil, false
}

// dependsOn reports whether the form displays data from the named base table
// (directly or through its view).
func (f *Form) dependsOn(table string) bool {
	return slices.ContainsFunc(f.Tables, func(t string) bool { return strings.EqualFold(t, table) })
}

// readOnly reports whether writes through the form are impossible (its
// relation is a view the planner cannot write through).
func (f *Form) readOnly() bool { return f.BaseTable == "" }

// Compiler binds form definitions to a database.
type Compiler struct {
	db *engine.Database
}

// NewCompiler creates a form compiler for the database.
func NewCompiler(db *engine.Database) *Compiler { return &Compiler{db: db} }

// CompileSource parses FDL source, compiles every form in it, resolves the
// master/detail links among them.
// Detail links may also refer to forms compiled earlier and passed in others.
func (c *Compiler) CompileSource(source string, others ...*Form) ([]*Form, error) {
	defs, err := fdl.Parse(source)
	if err != nil {
		return nil, err
	}
	known := map[string]*Form{}
	for _, o := range others {
		known[o.Def.Name] = o
	}
	var forms []*Form
	for _, def := range defs {
		form, err := c.compile(def)
		if err != nil {
			return nil, err
		}
		forms = append(forms, form)
		known[form.Def.Name] = form
	}
	for _, form := range forms {
		if err := c.resolveDetails(form, known); err != nil {
			return nil, err
		}
	}
	return forms, nil
}

// compile binds one parsed definition. Master/detail links are left
// unresolved; CompileSource resolves those.
func (c *Compiler) compile(def *fdl.FormDef) (*Form, error) {
	form := &Form{Def: def, Relation: def.Relation}

	// Plan the relation, table or view alike: the plan gives the schema and
	// the tables the form reads, and the write target decides updatability.
	sel, err := sql.ParseSelect("SELECT * FROM " + def.Relation)
	if err != nil {
		return nil, fmt.Errorf("core: form %q: %w", def.Name, err)
	}
	builder := plan.NewBuilder(c.db.Catalog())
	node, err := builder.Build(sel)
	if err != nil {
		return nil, fmt.Errorf("core: form %q: %w", def.Name, err)
	}
	form.Schema = node.Schema()
	form.Tables = scannedTables(node, nil)

	// The key is explicit, or the written table's primary key under the
	// names the relation shows it by.
	keyNames := def.KeyColumns
	if table, updatable, err := builder.ResolveWriteTarget(def.Relation); err == nil {
		form.BaseTable = table.Name()
		if len(keyNames) == 0 {
			var viewNames map[string]string
			if updatable != nil {
				viewNames = map[string]string{}
				for _, pair := range updatable.Columns {
					viewNames[pair.BaseColumn] = pair.ViewColumn
				}
			}
			keyNames = primaryKeyNames(table.Schema(), viewNames)
		}
	}
	if len(keyNames) == 0 {
		return nil, fmt.Errorf("core: form %q: %s has no primary key the form can use; declare one with a key line", def.Name, def.Relation)
	}
	for _, name := range keyNames {
		pos, err := form.Schema.ColumnIndex(name)
		if err != nil {
			return nil, fmt.Errorf("core: form %q key: %w", def.Name, err)
		}
		form.Key = append(form.Key, pos)
	}

	// Fields.
	for i := range def.Fields {
		field, err := c.compileField(form, &def.Fields[i])
		if err != nil {
			return nil, err
		}
		form.Fields = append(form.Fields, field)
	}

	// Static filter.
	if def.Filter != "" {
		filterExpr, err := sql.ParseExpr(def.Filter)
		if err != nil {
			return nil, fmt.Errorf("core: form %q filter: %w", def.Name, err)
		}
		if _, err := expr.Compile(filterExpr, form.Schema); err != nil {
			return nil, fmt.Errorf("core: form %q filter: %w", def.Name, err)
		}
		form.FilterExpr = filterExpr
	}

	// The total order. Key columns are never NULL; any other column may be.
	missing := len(form.Key) // key columns the order does not hold yet
	add := func(name string, pos int, desc bool) {
		if missing == 0 || slices.ContainsFunc(form.order, func(k pagerKey) bool { return k.pos == pos }) {
			return
		}
		nullable := !slices.Contains(form.Key, pos)
		if !nullable {
			missing--
		}
		form.order = append(form.order, pagerKey{column: strings.ToLower(name), pos: pos, desc: desc, nullable: nullable})
	}
	for _, o := range def.OrderBy {
		pos, err := form.Schema.ColumnIndex(o.Column)
		if err != nil {
			return nil, fmt.Errorf("core: form %q order by: %w", def.Name, err)
		}
		add(o.Column, pos, o.Desc)
	}
	for _, pos := range form.Key {
		add(form.Schema.Columns[pos].Name, pos, false)
	}

	// Triggers.
	for _, t := range def.Triggers {
		checkExpr, err := sql.ParseExpr(t.Check)
		if err != nil {
			return nil, fmt.Errorf("core: form %q trigger: %w", def.Name, err)
		}
		compiled, err := expr.Compile(checkExpr, form.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: form %q trigger: %w", def.Name, err)
		}
		form.Triggers = append(form.Triggers, &Trigger{Def: t, Check: compiled})
	}
	return form, nil
}

// scannedTables appends to tables the base tables the plan's scans read,
// each once.
func scannedTables(node plan.Node, tables []string) []string {
	if scan, ok := node.(*plan.ScanNode); ok && !slices.Contains(tables, scan.Table.Name()) {
		tables = append(tables, scan.Table.Name())
	}
	for _, child := range node.Children() {
		tables = scannedTables(child, tables)
	}
	return tables
}

// primaryKeyNames returns the schema's primary-key columns by the names a
// relation shows them under: viewNames maps base column names to a view's
// names, and is nil for the table itself. It returns nil when the schema has
// no primary key or the view hides part of it.
func primaryKeyNames(schema *types.Schema, viewNames map[string]string) []string {
	var names []string
	for _, pos := range schema.PrimaryKey() {
		name := schema.Columns[pos].Name
		if viewNames != nil {
			var ok bool
			if name, ok = viewNames[strings.ToLower(name)]; !ok {
				return nil
			}
		}
		names = append(names, name)
	}
	return names
}

func (c *Compiler) compileField(form *Form, def *fdl.FieldDef) (*Field, error) {
	field := &Field{Def: *def, Column: -1, Kind: types.KindString}
	if !def.Computed {
		pos, err := form.Schema.ColumnIndex(def.Column)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q: %w", form.Def.Name, def.Column, err)
		}
		field.Column = pos
		field.Kind = form.Schema.Columns[pos].Type
	}
	if def.Default != "" {
		e, err := sql.ParseExpr(def.Default)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q default: %w", form.Def.Name, def.Column, err)
		}
		compiled, err := expr.Compile(e, form.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q default: %w", form.Def.Name, def.Column, err)
		}
		field.Default = compiled
	}
	if def.Validate != "" {
		e, err := sql.ParseExpr(def.Validate)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q validate: %w", form.Def.Name, def.Column, err)
		}
		compiled, err := expr.Compile(e, form.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q validate: %w", form.Def.Name, def.Column, err)
		}
		field.Validate = compiled
	}
	if def.Value != "" {
		e, err := sql.ParseExpr(def.Value)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q value: %w", form.Def.Name, def.Column, err)
		}
		compiled, err := expr.Compile(e, form.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: form %q field %q value: %w", form.Def.Name, def.Column, err)
		}
		field.Value = compiled
	}
	return field, nil
}

// resolveDetails links a form's detail declarations to compiled child forms.
func (c *Compiler) resolveDetails(form *Form, known map[string]*Form) error {
	for _, d := range form.Def.Details {
		child, ok := known[d.Form]
		if !ok {
			return fmt.Errorf("core: form %q: detail form %q is not defined", form.Def.Name, d.Form)
		}
		childPos, err := child.Schema.ColumnIndex(d.ChildColumn)
		if err != nil {
			return fmt.Errorf("core: form %q detail %q: %w", form.Def.Name, d.Form, err)
		}
		parentPos, err := form.Schema.ColumnIndex(d.ParentColumn)
		if err != nil {
			return fmt.Errorf("core: form %q detail %q: %w", form.Def.Name, d.Form, err)
		}
		form.Details = append(form.Details, &DetailLink{
			Def:          d,
			Child:        child,
			ChildColumn:  childPos,
			ParentColumn: parentPos,
		})
	}
	return nil
}
