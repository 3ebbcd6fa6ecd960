// Package core implements the paper's contribution: windows on the world —
// screen windows that are live, updatable views onto relations.
//
// The package has three parts:
//
//   - the form compiler (this file), which binds a parsed form definition
//     (package fdl) to the catalog: resolving the relation, the fields, the
//     key, validation rules, computed fields, triggers and master/detail
//     links, and deciding whether the binding is updatable;
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
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/fdl"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/view"
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

// Form is a compiled form: a form definition bound to the catalog.
type Form struct {
	// Def is the parsed definition.
	Def *fdl.FormDef
	// Relation is the bound relation's name (table or view).
	Relation string
	// IsView reports whether the relation is a view.
	IsView bool
	// BaseTable is the underlying base table (the relation itself for a
	// table, the view's base table for an updatable view, nil for a
	// read-only view).
	BaseTable *catalog.Table
	// Updatable carries the view-update translation when the form is bound
	// to an updatable view.
	Updatable *view.Updatable
	// ReadOnly is true when writes through the form are impossible (the
	// relation is a non-updatable view).
	ReadOnly bool
	// Schema is the relation's schema as the form sees it.
	Schema *types.Schema
	// Fields are the compiled fields in definition order.
	Fields []*Field
	// Key is the positions (in Schema) of the columns identifying a row.
	Key []int
	// Filter is the compiled static filter (nil when none); FilterExpr is
	// its source expression, used when composing the window's query.
	Filter     *expr.Compiled
	FilterExpr sql.Expr
	// OrderBy is the default browse order (validated against the schema).
	OrderBy []fdl.OrderDef
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
	return f.BaseTable != nil && strings.EqualFold(f.BaseTable.Name(), table)
}

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
	cat := c.db.Catalog()
	form := &Form{Def: def, Relation: def.Relation}

	// Resolve the relation and decide updatability.
	switch {
	case cat.HasTable(def.Relation):
		table, err := cat.GetTable(def.Relation)
		if err != nil {
			return nil, err
		}
		form.BaseTable = table
		form.Schema = table.Schema()
	case cat.HasView(def.Relation):
		form.IsView = true
		viewDef, err := cat.GetView(def.Relation)
		if err != nil {
			return nil, err
		}
		schema, err := c.viewSchema(def.Relation)
		if err != nil {
			return nil, err
		}
		form.Schema = schema
		updatable, err := view.Analyze(viewDef, cat)
		if err == nil {
			form.Updatable = updatable
			base, err := cat.GetTable(updatable.BaseTable)
			if err != nil {
				return nil, err
			}
			form.BaseTable = base
		} else {
			form.ReadOnly = true
		}
	default:
		return nil, fmt.Errorf("core: form %q: no table or view named %q", def.Name, def.Relation)
	}

	// Key columns: explicit, or the base table's primary key when the form
	// is bound directly to a table.
	keyNames := def.KeyColumns
	if len(keyNames) == 0 && !form.IsView && form.BaseTable != nil {
		for _, pos := range form.Schema.PrimaryKey() {
			keyNames = append(keyNames, form.Schema.Columns[pos].Name)
		}
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
		compiled, err := expr.Compile(filterExpr, form.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: form %q filter: %w", def.Name, err)
		}
		form.Filter = compiled
		form.FilterExpr = filterExpr
	}

	// Order by columns must exist.
	for _, o := range def.OrderBy {
		if _, err := form.Schema.ColumnIndex(o.Column); err != nil {
			return nil, fmt.Errorf("core: form %q order by: %w", def.Name, err)
		}
		form.OrderBy = append(form.OrderBy, o)
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

// viewSchema derives a view's output schema by planning "SELECT *" over it.
func (c *Compiler) viewSchema(name string) (*types.Schema, error) {
	sel, err := sql.ParseSelect("SELECT * FROM " + name)
	if err != nil {
		return nil, err
	}
	node, err := planBuilderFor(c.db).Build(sel)
	if err != nil {
		return nil, fmt.Errorf("core: view %q: %w", name, err)
	}
	return node.Schema(), nil
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
