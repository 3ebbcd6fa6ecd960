package engine

import (
	"strings"
	"testing"
)

// TestOrderByIncomparableValuesFails: ORDER BY over values that cannot be
// compared (TEXT beside INT) fails the statement with the comparison's
// error, as MIN and MAX over the same values do, instead of returning the
// rows in an order no comparison decided. Keys that compare, NULLs among
// them, still sort.
func TestOrderByIncomparableValuesFails(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	defer s.Close()
	if _, err := s.ExecuteScript(`CREATE TABLE p (id INT PRIMARY KEY, city TEXT);
INSERT INTO p VALUES (1, 'b'), (2, NULL), (3, 'a'), (4, NULL), (5, 'c');`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT MIN(COALESCE(city, id)) FROM p",
		"SELECT id, COALESCE(city, id) FROM p ORDER BY COALESCE(city, id)",
		"SELECT id FROM p ORDER BY COALESCE(city, id) DESC",
	} {
		res, err := s.Query(q)
		if err == nil || !strings.Contains(err.Error(), "cannot compare") {
			var rows []string
			if res != nil {
				for _, r := range res.Rows {
					rows = append(rows, r.String())
				}
			}
			t.Errorf("%s = %v, %v; want a comparison error", q, rows, err)
		}
		st, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Query(); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("prepared %s: %v, want a comparison error", q, err)
		}
		st.Close()
	}
	res, err := s.Query("SELECT id FROM p ORDER BY city DESC, id")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].String())
	}
	if strings.Join(got, ",") != "5,1,3,2,4" {
		t.Errorf("ORDER BY city DESC, id = %v, want 5,1,3,2,4", got)
	}
}
