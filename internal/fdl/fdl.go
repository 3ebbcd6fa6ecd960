// Package fdl parses the Form Definition Language: the declarative source a
// designer writes to put a window on the world. One .fdl source can define
// several forms; each form names the relation (table or view) it is bound to,
// lays out its fields, and declares validation rules, defaults, computed
// fields, ordering, static filters, master/detail links and triggers.
//
// The language is line-oriented — every directive fits on one line — which is
// faithful to how the early forms generators stored their definitions and
// keeps definitions diff-able. A small example:
//
//	form customer_card on customers
//	  title "Customer Card"
//	  size 70 16
//	  key id
//	  field id     at 2 14 width 8  label "Number"  readonly
//	  field name   at 3 14 width 30 label "Name"    required
//	  field city   at 4 14 width 20 label "City"    default 'Boston'
//	  field credit at 5 14 width 10 label "Credit"  validate credit >= 0 message "credit cannot be negative"
//	  computed status at 6 14 width 12 label "Status" value UPPER(city)
//	  order by name
//	  filter credit >= 0
//	  detail order_lines link customer_id = id rows 6 at 8 2
//	  trigger before delete check credit = 0 message "close the account first"
//	  end
//
// Field validation and (before) triggers are client-side checks: the window
// evaluates them before it writes, and the database never sees them. Semantic
// checks that need the database (does the relation exist? do the columns?)
// belong to the form compiler in package core; this package only checks
// syntax and internal consistency.
package fdl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sql"
)

// FormDef is one parsed form definition.
type FormDef struct {
	// Name is the form's identifier (lower-cased).
	Name string
	// Relation is the table or view the form is bound to.
	Relation string
	// Title is the window title (defaults to the form name).
	Title string
	// Width and Height are the window's size in cells (defaults 78x22).
	Width, Height int
	// KeyColumns identify a row for updates; defaults to the relation's
	// primary key at compile time.
	KeyColumns []string
	// Fields in declaration order.
	Fields []FieldDef
	// OrderBy is the default browse order.
	OrderBy []OrderDef
	// Filter is a static predicate (expression text) always applied to the
	// window, on top of whatever the user queries by form.
	Filter string
	// Details are master/detail links to other forms.
	Details []DetailDef
	// Triggers run checks before an insert, update or delete through the form.
	Triggers []TriggerDef
	// Line is the source line the form started on (for error messages).
	Line int
}

// FieldDef is one field of a form.
type FieldDef struct {
	// Column is the bound column name; for computed fields it is the
	// display-only name.
	Column string
	// Computed marks display-only fields derived from an expression.
	Computed bool
	// Row, Col position the field's value cell on the window (0-based,
	// relative to the window's client area). Row -1 means "place
	// automatically under the previous field".
	Row, Col int
	// Width is the field's display width (default 16).
	Width int
	// Label is drawn to the left of the field (defaults to the column name).
	Label string
	// ReadOnly fields cannot be edited.
	ReadOnly bool
	// Required fields must be non-empty on save.
	Required bool
	// Default is an expression evaluated for new rows (text; empty = none).
	Default string
	// Validate is a boolean expression over the form's columns that must
	// hold on save.
	Validate string
	// Message is the error shown when Validate fails.
	Message string
	// Value is the expression computed for Computed fields.
	Value string
	// Format is an optional display transform: "upper" or "lower".
	Format string
	// Line is the source line (for error messages).
	Line int
}

// OrderDef is one ORDER BY key of a form.
type OrderDef struct {
	Column string
	Desc   bool
}

// DetailDef links a detail form under this (master) form.
type DetailDef struct {
	// Form is the name of the detail form.
	Form string
	// ChildColumn = ParentColumn is the link predicate: the detail window
	// shows the rows whose ChildColumn equals the master's ParentColumn.
	ChildColumn, ParentColumn string
	// Rows is how many detail rows are visible at once (default 5).
	Rows int
	// Row, Col position the detail block; -1 means "below the fields".
	Row, Col int
	Line     int
}

// TriggerDef is a condition checked before a write through the form.
type TriggerDef struct {
	// Event is "insert", "update" or "delete".
	Event string
	// Check is a boolean expression that must hold for the write to proceed.
	Check string
	// Message is the error reported when the check fails.
	Message string
	Line    int
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("fdl: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses FDL source into form definitions.
func Parse(source string) ([]*FormDef, error) {
	var forms []*FormDef
	var current *FormDef
	lines := strings.Split(source, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--") {
			continue
		}
		words := fields(line)
		keyword := strings.ToLower(words[0])

		if keyword == "form" {
			if current != nil {
				return nil, errf(lineNo, "form %q is missing its 'end' line", current.Name)
			}
			form, err := parseFormHeader(words, lineNo)
			if err != nil {
				return nil, err
			}
			current = form
			continue
		}
		if current == nil {
			return nil, errf(lineNo, "%q appears outside a form definition", keyword)
		}
		switch keyword {
		case "end":
			if err := finishForm(current); err != nil {
				return nil, err
			}
			forms = append(forms, current)
			current = nil
		case "title":
			text, err := quotedRest(line, "title", lineNo)
			if err != nil {
				return nil, err
			}
			current.Title = text
		case "size":
			if len(words) != 3 {
				return nil, errf(lineNo, "size takes width and height")
			}
			w, err1 := strconv.Atoi(words[1])
			h, err2 := strconv.Atoi(words[2])
			if err1 != nil || err2 != nil || w < 10 || h < 4 {
				return nil, errf(lineNo, "size %q %q is not a usable window size", words[1], words[2])
			}
			current.Width, current.Height = w, h
		case "key":
			rest := strings.TrimSpace(line[len(words[0]):])
			for _, col := range strings.Split(rest, ",") {
				col = strings.TrimSpace(col)
				if col == "" {
					return nil, errf(lineNo, "key needs at least one column")
				}
				current.KeyColumns = append(current.KeyColumns, strings.ToLower(col))
			}
		case "field", "computed":
			field, err := parseField(line, words, lineNo, keyword == "computed")
			if err != nil {
				return nil, err
			}
			current.Fields = append(current.Fields, field)
		case "order":
			if len(words) < 3 || strings.ToLower(words[1]) != "by" {
				return nil, errf(lineNo, "expected 'order by <column> [desc], ...'")
			}
			rest := strings.TrimSpace(line[strings.Index(strings.ToLower(line), "by")+2:])
			for _, part := range strings.Split(rest, ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				tokens := fields(part)
				def := OrderDef{Column: strings.ToLower(tokens[0])}
				if len(tokens) > 1 && strings.EqualFold(tokens[1], "desc") {
					def.Desc = true
				}
				current.OrderBy = append(current.OrderBy, def)
			}
		case "filter":
			exprText := strings.TrimSpace(line[len("filter"):])
			if exprText == "" {
				return nil, errf(lineNo, "filter needs an expression")
			}
			if _, err := sql.ParseExpr(exprText); err != nil {
				return nil, errf(lineNo, "filter expression: %v", err)
			}
			current.Filter = exprText
		case "detail":
			detail, err := parseDetail(words, lineNo)
			if err != nil {
				return nil, err
			}
			current.Details = append(current.Details, detail)
		case "trigger":
			trigger, err := parseTrigger(line, words, lineNo)
			if err != nil {
				return nil, err
			}
			current.Triggers = append(current.Triggers, trigger)
		default:
			return nil, errf(lineNo, "unknown directive %q", keyword)
		}
	}
	if current != nil {
		return nil, errf(len(lines), "form %q is missing its 'end' line", current.Name)
	}
	if len(forms) == 0 {
		return nil, errf(1, "no form definitions found")
	}
	return forms, nil
}

func parseFormHeader(words []string, lineNo int) (*FormDef, error) {
	// form <name> on <relation>
	if len(words) != 4 || strings.ToLower(words[2]) != "on" {
		return nil, errf(lineNo, "expected 'form <name> on <relation>'")
	}
	return &FormDef{
		Name:     strings.ToLower(words[1]),
		Relation: strings.ToLower(words[3]),
		Width:    78,
		Height:   22,
		Line:     lineNo,
	}, nil
}

func finishForm(form *FormDef) error {
	if form.Title == "" {
		form.Title = form.Name
	}
	if len(form.Fields) == 0 {
		return errf(form.Line, "form %q declares no fields", form.Name)
	}
	names := map[string]bool{}
	for _, f := range form.Fields {
		lower := strings.ToLower(f.Column)
		if names[lower] {
			return errf(f.Line, "form %q declares field %q twice", form.Name, f.Column)
		}
		names[lower] = true
	}
	// Auto-place fields that did not give a position: one per row starting
	// at row 1, values in a column to the right of the longest label.
	labelWidth := 0
	for _, f := range form.Fields {
		if len(f.Label) > labelWidth {
			labelWidth = len(f.Label)
		}
	}
	nextRow := 1
	for i := range form.Fields {
		f := &form.Fields[i]
		if f.Row < 0 {
			f.Row = nextRow
			f.Col = labelWidth + 3
		}
		if f.Row >= nextRow {
			nextRow = f.Row + 1
		}
	}
	for i := range form.Details {
		if form.Details[i].Row < 0 {
			form.Details[i].Row = nextRow + 1
			form.Details[i].Col = 1
			nextRow += form.Details[i].Rows + 3
		}
	}
	return nil
}

// parseField parses "field ..." / "computed ..." lines. The grammar is a
// sequence of clauses after the column name; expression-valued clauses
// (default, validate, value) run to the start of the next clause keyword.
func parseField(line string, words []string, lineNo int, computed bool) (FieldDef, error) {
	field := FieldDef{Row: -1, Col: -1, Width: 16, Computed: computed, Line: lineNo}
	if len(words) < 2 {
		return field, errf(lineNo, "field needs a column name")
	}
	field.Column = strings.ToLower(words[1])
	field.Label = field.Column

	rest := strings.TrimSpace(line[strings.Index(line, words[1])+len(words[1]):])
	clauses, err := splitClauses(rest, lineNo)
	if err != nil {
		return field, err
	}
	for _, clause := range clauses {
		switch clause.keyword {
		case "at":
			parts := fields(clause.value)
			if len(parts) != 2 {
				return field, errf(lineNo, "at takes a row and a column")
			}
			row, err1 := strconv.Atoi(parts[0])
			col, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || row < 0 || col < 0 {
				return field, errf(lineNo, "at %q is not a position", clause.value)
			}
			field.Row, field.Col = row, col
		case "width":
			w, err := strconv.Atoi(strings.TrimSpace(clause.value))
			if err != nil || w < 1 {
				return field, errf(lineNo, "width %q is not a positive number", clause.value)
			}
			field.Width = w
		case "label":
			field.Label = unquote(clause.value)
		case "readonly":
			field.ReadOnly = true
		case "required":
			field.Required = true
		case "default":
			if _, err := sql.ParseExpr(clause.value); err != nil {
				return field, errf(lineNo, "default expression: %v", err)
			}
			field.Default = clause.value
		case "validate":
			if _, err := sql.ParseExpr(clause.value); err != nil {
				return field, errf(lineNo, "validate expression: %v", err)
			}
			field.Validate = clause.value
		case "message":
			field.Message = unquote(clause.value)
		case "value":
			if _, err := sql.ParseExpr(clause.value); err != nil {
				return field, errf(lineNo, "value expression: %v", err)
			}
			field.Value = clause.value
		case "format":
			format := strings.ToLower(strings.TrimSpace(clause.value))
			if format != "upper" && format != "lower" {
				return field, errf(lineNo, "format must be upper or lower")
			}
			field.Format = format
		default:
			return field, errf(lineNo, "unknown field clause %q", clause.keyword)
		}
	}
	if computed && field.Value == "" {
		return field, errf(lineNo, "computed field %q needs a value expression", field.Column)
	}
	if computed {
		field.ReadOnly = true
	}
	if !computed && field.Value != "" {
		return field, errf(lineNo, "field %q is stored; use 'computed' for derived fields", field.Column)
	}
	return field, nil
}

func parseDetail(words []string, lineNo int) (DetailDef, error) {
	// detail <form> link <childcol> = <parentcol> [rows <n>] [at <row> <col>]
	detail := DetailDef{Rows: 5, Row: -1, Col: -1, Line: lineNo}
	if len(words) < 6 || strings.ToLower(words[2]) != "link" || words[4] != "=" {
		return detail, errf(lineNo, "expected 'detail <form> link <child_column> = <parent_column>'")
	}
	detail.Form = strings.ToLower(words[1])
	detail.ChildColumn = strings.ToLower(words[3])
	detail.ParentColumn = strings.ToLower(words[5])
	i := 6
	for i < len(words) {
		switch strings.ToLower(words[i]) {
		case "rows":
			if i+1 >= len(words) {
				return detail, errf(lineNo, "rows needs a number")
			}
			n, err := strconv.Atoi(words[i+1])
			if err != nil || n < 1 {
				return detail, errf(lineNo, "rows %q is not a positive number", words[i+1])
			}
			detail.Rows = n
			i += 2
		case "at":
			if i+2 >= len(words) {
				return detail, errf(lineNo, "at takes a row and a column")
			}
			row, err1 := strconv.Atoi(words[i+1])
			col, err2 := strconv.Atoi(words[i+2])
			if err1 != nil || err2 != nil {
				return detail, errf(lineNo, "at position is not numeric")
			}
			detail.Row, detail.Col = row, col
			i += 3
		default:
			return detail, errf(lineNo, "unknown detail clause %q", words[i])
		}
	}
	return detail, nil
}

func parseTrigger(line string, words []string, lineNo int) (TriggerDef, error) {
	// trigger before <insert|update|delete> check <expr> [message "<text>"]
	trigger := TriggerDef{Line: lineNo}
	if len(words) < 5 {
		return trigger, errf(lineNo, "expected 'trigger before insert|update|delete check <expr>'")
	}
	if strings.ToLower(words[1]) != "before" {
		return trigger, errf(lineNo, "trigger timing must be before: a check after the write could refuse nothing")
	}
	trigger.Event = strings.ToLower(words[2])
	if trigger.Event != "insert" && trigger.Event != "update" && trigger.Event != "delete" {
		return trigger, errf(lineNo, "trigger event must be insert, update or delete")
	}
	if strings.ToLower(words[3]) != "check" {
		return trigger, errf(lineNo, "only 'check' triggers are supported")
	}
	rest := line[strings.Index(strings.ToLower(line), "check")+len("check"):]
	checkText := rest
	if idx := findKeyword(rest, "message"); idx >= 0 {
		checkText = rest[:idx]
		trigger.Message = unquote(strings.TrimSpace(rest[idx+len("message"):]))
	}
	checkText = strings.TrimSpace(checkText)
	if checkText == "" {
		return trigger, errf(lineNo, "trigger check needs an expression")
	}
	if _, err := sql.ParseExpr(checkText); err != nil {
		return trigger, errf(lineNo, "trigger check expression: %v", err)
	}
	trigger.Check = checkText
	return trigger, nil
}

// clause is one "keyword value" pair of a field line.
type clause struct {
	keyword string
	value   string
}

// fieldClauseKeywords are the clause starters recognised on field lines.
// Flag clauses take no value.
var fieldClauseKeywords = map[string]bool{
	"at": false, "width": false, "label": false, "readonly": true,
	"required": true, "default": false, "validate": false, "message": false,
	"value": false, "format": false,
}

// splitClauses breaks the remainder of a field line into clauses. Values run
// until the next clause keyword that is not inside a quoted string.
func splitClauses(rest string, lineNo int) ([]clause, error) {
	words := fields(rest)
	var out []clause
	i := 0
	for i < len(words) {
		keyword := strings.ToLower(words[i])
		isFlag, known := fieldClauseKeywords[keyword]
		if !known {
			return nil, errf(lineNo, "unknown field clause %q", words[i])
		}
		if isFlag {
			out = append(out, clause{keyword: keyword})
			i++
			continue
		}
		j := i + 1
		var valueWords []string
		for j < len(words) {
			lower := strings.ToLower(words[j])
			if _, isKeyword := fieldClauseKeywords[lower]; isKeyword && !insideQuote(valueWords) {
				break
			}
			valueWords = append(valueWords, words[j])
			j++
		}
		if len(valueWords) == 0 {
			return nil, errf(lineNo, "clause %q needs a value", keyword)
		}
		out = append(out, clause{keyword: keyword, value: strings.Join(valueWords, " ")})
		i = j
	}
	return out, nil
}

// insideQuote reports whether the words collected so far have an unbalanced
// quote, in which case a keyword-looking word is still part of the value.
func insideQuote(words []string) bool {
	text := strings.Join(words, " ")
	return strings.Count(text, `"`)%2 == 1 || strings.Count(text, "'")%2 == 1
}

// fields splits on whitespace but keeps quoted strings (single or double)
// together with their quotes.
func fields(line string) []string {
	var out []string
	var current strings.Builder
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			current.WriteByte(c)
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
			current.WriteByte(c)
		case c == ' ' || c == '\t':
			if current.Len() > 0 {
				out = append(out, current.String())
				current.Reset()
			}
		default:
			current.WriteByte(c)
		}
	}
	if current.Len() > 0 {
		out = append(out, current.String())
	}
	return out
}

// quotedRest extracts the quoted remainder of a directive line ("title ...").
func quotedRest(line, keyword string, lineNo int) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if rest == "" {
		return "", errf(lineNo, "%s needs a value", keyword)
	}
	return unquote(rest), nil
}

// unquote strips one level of single or double quotes if present.
func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}

// findKeyword finds a bare occurrence of the keyword (surrounded by spaces or
// line edges) outside quotes, returning its index or -1.
func findKeyword(text, keyword string) int {
	lower := strings.ToLower(text)
	quote := byte(0)
	for i := 0; i+len(keyword) <= len(lower); i++ {
		c := lower[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		if c == '\'' || c == '"' {
			quote = c
			continue
		}
		if strings.HasPrefix(lower[i:], keyword) {
			beforeOK := i == 0 || lower[i-1] == ' ' || lower[i-1] == '\t'
			afterIdx := i + len(keyword)
			afterOK := afterIdx >= len(lower) || lower[afterIdx] == ' ' || lower[afterIdx] == '\t'
			if beforeOK && afterOK {
				return i
			}
		}
	}
	return -1
}
