package engine

import (
	"path/filepath"
	"testing"

	"repro/internal/types"
)

// The budgets below count the objects one prepared, autocommitted one-row
// write allocates on a table with two indexes, in process. A row's bytes are
// made once: the insert validates it into one tuple, encodes that tuple once
// for both the heap and the log, and frames the log record in place in the
// log's buffer; each index key is encoded once per row. Encoding the row
// again for its log record, framing it in a slice of its own and formatting
// the result message on every statement cost INSERT 39, UPDATE 54 and DELETE
// 34 objects here. Each budget holds on both ways a database runs: in memory,
// keeping no log, and logging to a file, where the counts include the log's
// share.

const (
	insertAllocBudget = 19
	updateAllocBudget = 25
	deleteAllocBudget = 16
)

// allocConfigs opens a database each way it runs.
var allocConfigs = []struct {
	name string
	open func(t *testing.T) *Database
}{
	{"memory", func(*testing.T) *Database { return OpenMemory() }},
	{"file", func(t *testing.T) *Database {
		db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "acct.wal")})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}},
}

// eachConfig runs f in a subtest per allocConfigs entry, on a session of a
// database from writeAllocTable holding n rows.
func eachConfig(t *testing.T, n int, f func(t *testing.T, s *Session)) {
	for _, c := range allocConfigs {
		t.Run(c.name, func(t *testing.T) {
			db := c.open(t)
			defer db.Close()
			s := writeAllocTable(t, db, n)
			defer s.Close()
			f(t, s)
		})
	}
}

// writeAllocTable opens a session on db and creates there a table with a
// primary key and one secondary index, filled with rows ids 0..n-1.
func writeAllocTable(t *testing.T, db *Database, n int) *Session {
	t.Helper()
	s := db.Session()
	for _, stmt := range []string{
		"CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"CREATE INDEX acct_balance ON acct (balance)",
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := s.Prepare("INSERT INTO acct VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	batch := make([][]types.Value, n)
	for i := range batch {
		batch[i] = []types.Value{intv(i), strv("owner"), intv(i % 97)}
	}
	if n > 0 {
		if _, err := ins.ExecBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// countWrite prepares text on s and returns the mean allocations of runs
// executions of it, the i-th bound to the values bind(i, args) leaves in one
// reused argument slice.
func countWrite(t *testing.T, s *Session, text string, runs int, args []types.Value, bind func(i int, args []types.Value)) float64 {
	t.Helper()
	st, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 0
	bind(i, args)
	// One unmeasured execution warms the statement's operator and buffers.
	if _, err := st.Exec(args...); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(runs, func() {
		i++
		bind(i, args)
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("execution %d affected %d rows, want 1", i, res.RowsAffected)
		}
	})
}

func TestPreparedInsertAllocations(t *testing.T) {
	eachConfig(t, 0, func(t *testing.T, s *Session) {
		args := []types.Value{intv(0), strv("owner"), intv(0)}
		allocs := countWrite(t, s, "INSERT INTO acct VALUES (?, ?, ?)", 200, args, func(i int, args []types.Value) {
			args[0], args[2] = intv(i), intv(i%97)
		})
		t.Logf("prepared one-row INSERT: %.1f allocations", allocs)
		if allocs > insertAllocBudget {
			t.Errorf("a prepared one-row INSERT allocates %.1f objects, budget %d", allocs, insertAllocBudget)
		}
	})
}

func TestPreparedUpdateAllocations(t *testing.T) {
	const rows = 500
	eachConfig(t, rows, func(t *testing.T, s *Session) {
		args := make([]types.Value, 2)
		allocs := countWrite(t, s, "UPDATE acct SET balance = ? WHERE id = ?", 200, args, func(i int, args []types.Value) {
			args[0], args[1] = intv(1000+i), intv(i%rows)
		})
		t.Logf("prepared one-row UPDATE: %.1f allocations", allocs)
		if allocs > updateAllocBudget {
			t.Errorf("a prepared one-row UPDATE allocates %.1f objects, budget %d", allocs, updateAllocBudget)
		}
	})
}

func TestPreparedDeleteAllocations(t *testing.T) {
	const rows = 500
	eachConfig(t, rows, func(t *testing.T, s *Session) {
		args := make([]types.Value, 1)
		allocs := countWrite(t, s, "DELETE FROM acct WHERE id = ?", 200, args, func(i int, args []types.Value) {
			args[0] = intv(i)
		})
		t.Logf("prepared one-row DELETE: %.1f allocations", allocs)
		if allocs > deleteAllocBudget {
			t.Errorf("a prepared one-row DELETE allocates %.1f objects, budget %d", allocs, deleteAllocBudget)
		}
	})
}
