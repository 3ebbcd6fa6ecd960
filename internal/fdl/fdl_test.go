package fdl

import (
	"fmt"
	"strings"
	"testing"
)

const customerForm = `
# Customer maintenance form
form customer_card on customers
  title "Customer Card"
  size 70 18
  key id
  field id     at 2 14 width 8  label "Number"  readonly
  field name   at 3 14 width 30 label "Name"    required
  field city   at 4 14 width 20 label "City"    default 'Boston'
  field credit at 5 14 width 10 label "Credit"  validate credit >= 0 message "credit cannot be negative"
  computed shout at 6 14 width 20 label "Shout" value UPPER(name)
  order by name, credit desc
  filter credit >= 0
  detail order_lines link customer_id = id rows 6 at 9 2
  trigger before delete check credit = 0 message "close the account first"
end
`

func TestParseCustomerForm(t *testing.T) {
	form, err := parseOne(customerForm)
	if err != nil {
		t.Fatal(err)
	}
	if form.Name != "customer_card" || form.Relation != "customers" {
		t.Errorf("header = %+v", form)
	}
	if form.Title != "Customer Card" || form.Width != 70 || form.Height != 18 {
		t.Errorf("title/size = %q %dx%d", form.Title, form.Width, form.Height)
	}
	if len(form.KeyColumns) != 1 || form.KeyColumns[0] != "id" {
		t.Errorf("key = %v", form.KeyColumns)
	}
	if len(form.Fields) != 5 {
		t.Fatalf("fields = %d", len(form.Fields))
	}
	id := form.Fields[0]
	if !id.ReadOnly || id.Row != 2 || id.Col != 14 || id.Width != 8 || id.Label != "Number" {
		t.Errorf("id field = %+v", id)
	}
	if !form.Fields[1].Required {
		t.Error("name should be required")
	}
	if form.Fields[2].Default != "'Boston'" {
		t.Errorf("city default = %q", form.Fields[2].Default)
	}
	credit := form.Fields[3]
	if credit.Validate != "credit >= 0" || credit.Message != "credit cannot be negative" {
		t.Errorf("credit validation = %q / %q", credit.Validate, credit.Message)
	}
	shout := form.Fields[4]
	if !shout.Computed || !shout.ReadOnly || shout.Value != "UPPER(name)" {
		t.Errorf("computed field = %+v", shout)
	}
	if len(form.OrderBy) != 2 || form.OrderBy[0].Column != "name" || !form.OrderBy[1].Desc {
		t.Errorf("order by = %+v", form.OrderBy)
	}
	if form.Filter != "credit >= 0" {
		t.Errorf("filter = %q", form.Filter)
	}
	if len(form.Details) != 1 {
		t.Fatalf("details = %+v", form.Details)
	}
	d := form.Details[0]
	if d.Form != "order_lines" || d.ChildColumn != "customer_id" || d.ParentColumn != "id" || d.Rows != 6 || d.Row != 9 {
		t.Errorf("detail = %+v", d)
	}
	if len(form.Triggers) != 1 || form.Triggers[0].When != "before" || form.Triggers[0].Event != "delete" {
		t.Errorf("triggers = %+v", form.Triggers)
	}
	if form.Triggers[0].Check != "credit = 0" || form.Triggers[0].Message != "close the account first" {
		t.Errorf("trigger check = %q / %q", form.Triggers[0].Check, form.Triggers[0].Message)
	}
}

func TestParseMultipleFormsAndAutoLayout(t *testing.T) {
	source := `
form a on t1
  field x
  field y label "A longer label"
end

form b on t2
  field z width 4
  detail a link t1_id = id
end
`
	forms, err := Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 2 {
		t.Fatalf("forms = %d", len(forms))
	}
	a := forms[0]
	// Auto layout: consecutive rows, aligned after the longest label.
	if a.Fields[0].Row != 1 || a.Fields[1].Row != 2 {
		t.Errorf("auto rows = %d, %d", a.Fields[0].Row, a.Fields[1].Row)
	}
	if a.Fields[0].Col != len("A longer label")+3 {
		t.Errorf("auto col = %d", a.Fields[0].Col)
	}
	if a.Title != "a" {
		t.Errorf("default title = %q", a.Title)
	}
	b := forms[1]
	if b.Details[0].Row < 0 || b.Details[0].Rows != 5 {
		t.Errorf("detail defaults = %+v", b.Details[0])
	}
	if b.Fields[0].Width != 4 || b.Fields[0].Label != "z" {
		t.Errorf("field defaults = %+v", b.Fields[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing end":        "form a on t\n field x\n",
		"no fields":          "form a on t\nend\n",
		"bad header":         "form a\n field x\nend\n",
		"outside form":       "field x\n",
		"dup field":          "form a on t\n field x\n field X\nend\n",
		"unknown directive":  "form a on t\n field x\n banana\nend\n",
		"bad size":           "form a on t\n size 2 1\n field x\nend\n",
		"bad at":             "form a on t\n field x at 1\nend\n",
		"bad width":          "form a on t\n field x width zero\nend\n",
		"bad validate":       "form a on t\n field x validate ((\nend\n",
		"computed w/o value": "form a on t\n computed x\nend\n",
		"stored with value":  "form a on t\n field x value 1+1\nend\n",
		"bad filter":         "form a on t\n field x\n filter (((\nend\n",
		"bad detail":         "form a on t\n field x\n detail d link a b\nend\n",
		"bad trigger when":   "form a on t\n field x\n trigger during insert check 1=1\nend\n",
		"bad trigger event":  "form a on t\n field x\n trigger before truncate check 1=1\nend\n",
		"trigger no check":   "form a on t\n field x\n trigger before insert action x\nend\n",
		"bad format":         "form a on t\n field x format title\nend\n",
		"empty source":       "\n\n",
		"nested form":        "form a on t\n field x\nform b on t\nend\nend\n",
		"clause no value":    "form a on t\n field x width\nend\n",
		"unknown clause":     "form a on t\n field x sparkly\nend\n",
		"key no column":      "form a on t\n key \n field x\nend\n",
	}
	for name, source := range cases {
		if _, err := Parse(source); err == nil {
			t.Errorf("%s: Parse should fail", name)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse("form a on t\n field x\n banana\nend\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error = %q", err)
	}
}

func TestParseOneRejectsMultiple(t *testing.T) {
	if _, err := parseOne("form a on t\n field x\nend\nform b on t\n field y\nend\n"); err == nil {
		t.Error("parseOne should reject two forms")
	}
	forms, err := Parse("form a on t\n field x\nend\nform b on t\n field y\nend\n")
	if err != nil || len(forms) != 2 || forms[0].Name != "a" || forms[1].Name != "b" {
		t.Errorf("Parse = %v, %v; want forms a and b in order", forms, err)
	}
}

// parseOne parses source that must contain exactly one form.
func parseOne(source string) (*FormDef, error) {
	forms, err := Parse(source)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("fdl: expected exactly one form, found %d", len(forms))
	}
	return forms[0], nil
}

func TestValidateExpressionWithKeywordLookingLabel(t *testing.T) {
	// A quoted label containing a clause keyword must not end the clause.
	form, err := parseOne("form a on t\n field x label \"width of part\" width 9\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if form.Fields[0].Label != "width of part" || form.Fields[0].Width != 9 {
		t.Errorf("field = %+v", form.Fields[0])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	form, err := parseOne("# header comment\n\nform a on t\n -- another comment\n field x\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if form.Name != "a" {
		t.Errorf("form = %+v", form)
	}
}

func BenchmarkParseForm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(customerForm); err != nil {
			b.Fatal(err)
		}
	}
}
