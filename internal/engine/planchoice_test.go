package engine

import (
	"strings"
	"testing"
)

// TestAccessPathChoiceIsDeterministic: a scan with range conjuncts on two
// indexed columns plans the same access path in every database. The
// candidates are ranked by the conjuncts they consume, and a tie goes to
// the index created first. Here each range consumes one conjunct, so the
// primary key's range wins, and it also serves ORDER BY id, so no sort is
// planned. Choosing by map order picked either index at random.
func TestAccessPathChoiceIsDeterministic(t *testing.T) {
	const query = "SELECT * FROM c WHERE credit > 500 AND id > ? ORDER BY id LIMIT 24"
	var first string
	for i := 0; i < 40; i++ {
		db := OpenMemory()
		s := db.Session()
		for _, stmt := range []string{
			"CREATE TABLE c (id INT PRIMARY KEY, name TEXT, credit INT)",
			"CREATE INDEX c_credit ON c (credit)",
		} {
			if _, err := s.Execute(stmt); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		plan := st.ExplainPlan()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = plan
			if !strings.Contains(plan, "c_pkey") || strings.Contains(plan, "Sort") {
				t.Fatalf("the plan does not read the c_pkey range in key order:\n%s", plan)
			}
			continue
		}
		if plan != first {
			t.Fatalf("database %d planned\n%s\nwhere the first planned\n%s", i, plan, first)
		}
	}
}
