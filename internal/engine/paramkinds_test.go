package engine

import (
	"strings"
	"testing"
)

const paramKindSchema = `
CREATE TABLE c (id INT PRIMARY KEY, name TEXT NOT NULL, credit INT, city TEXT);
CREATE VIEW rich AS SELECT * FROM c WHERE credit > 500;
CREATE VIEW r2 (k, n, cr) AS SELECT id, name, credit FROM c WHERE credit < 2000;
`

// TestParamKindsGolden pins the kind each parameter of a statement binds as.
// A statement is written once over slots ({t} the relation, {id}, {name},
// {credit} its columns, {all} one "?" per column) and prepared over the table
// c and over the views rich and r2, which must give every parameter the kind
// of the base column behind it. The wanted kinds were captured from the
// statements over c before the planner took over recording them.
func TestParamKindsGolden(t *testing.T) {
	targets := []struct {
		t, id, name, credit string
		width               int
	}{
		{"c", "id", "name", "credit", 4},
		{"rich", "id", "name", "credit", 4},
		{"r2", "k", "n", "cr", 3},
	}
	cases := []struct {
		text     string
		want     string // over c; a view with fewer columns wants a prefix
		baseOnly bool   // the statement is refused through a view
	}{
		{"SELECT * FROM {t} WHERE {id} = ? AND {name} <> ?", "INT,TEXT", false},
		{"SELECT {id} FROM {t} WHERE {credit} BETWEEN ? AND ?", "INT,INT", false},
		{"SELECT {id} FROM {t} WHERE {name} IN (?, ?) OR {id} NOT IN (?)", "TEXT,TEXT,INT", false},
		{"SELECT a.{id} FROM {t} a JOIN {t} b ON a.{id} = b.{id} AND b.{credit} >= ?", "INT", false},
		{"SELECT {name}, COUNT(*) FROM {t} WHERE {credit} > ? GROUP BY {name} HAVING {name} <> ? AND COUNT(*) > ?", "INT,TEXT,NULL", false},
		{"SELECT {id}, ? FROM {t} WHERE {id} > ? ORDER BY {credit} + ?", "NULL,INT,INT", false},
		{"SELECT {id} FROM {t} WHERE {credit} > @floor OR {credit} = @floor", "INT", false},
		{"INSERT INTO {t} ({id}, {name}, {credit}) VALUES (?, ?, ?)", "INT,TEXT,INT", false},
		{"INSERT INTO {t} VALUES ({all})", "INT,TEXT,INT,TEXT", false},
		{"INSERT INTO c (id, name) SELECT {id} + ?, {name} FROM {t} WHERE {credit} > ?", "INT,INT", false},
		{"UPDATE {t} SET {credit} = ?, {name} = ? WHERE {id} = ?", "INT,TEXT,INT", false},
		{"DELETE FROM {t} WHERE {id} IN (?, ?) AND {name} = ?", "INT,INT,TEXT", false},
		{"UPDATE c SET credit = credit + 1 WHERE id = ? RETURNING id, credit * ?", "INT,INT", true},
		{"DELETE FROM c WHERE name = ? RETURNING id + ?", "TEXT,INT", true},
		{"INSERT INTO c (id, name) VALUES (?, ?) RETURNING credit - ?", "INT,TEXT,INT", true},
	}
	_, s := paramKindDB(t)
	for _, tc := range cases {
		for _, tg := range targets {
			if tc.baseOnly && tg.t != "c" {
				continue
			}
			all := strings.TrimSuffix(strings.Repeat("?, ", tg.width), ", ")
			text := strings.NewReplacer("{t}", tg.t, "{id}", tg.id, "{name}", tg.name, "{credit}", tg.credit, "{all}", all).Replace(tc.text)
			st, err := s.Prepare(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			var kinds []string
			for _, k := range st.entry.paramKinds {
				kinds = append(kinds, k.String())
			}
			st.Close()
			got := strings.Join(kinds, ",")
			want := tc.want
			if w := strings.Split(tc.want, ","); len(w) > len(kinds) {
				want = strings.Join(w[:len(kinds)], ",")
			}
			if got != want {
				t.Errorf("%s: parameter kinds %s, want %s", text, got, want)
			}
		}
	}
}

func paramKindDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(paramKindSchema); err != nil {
		t.Fatal(err)
	}
	return db, s
}
