package server_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/types"
)

// runner runs one statement on one session and returns its rows.
type runner func(text string) ([]types.Tuple, error)

// TestFailedStatementPoisonsItsTransaction: a statement that fails inside
// BEGIN may already have written some of its rows, so the transaction can
// only roll back. Five rows hold v = 0; session A begins, B updates row 3,
// and A's UPDATE of every row claims rows 1 and 2 before it meets B's
// committed change at row 3 and fails with a write conflict. After that A's
// transaction refuses every statement with ErrTxnAborted, and its COMMIT
// rolls back: the table reads v = 0 everywhere but row 3, and rows 1 and 2
// are free for B at once. Over the wire the same sequence gives the same
// outcome, with the refusal carried as the error's text.
func TestFailedStatementPoisonsItsTransaction(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		db := engine.OpenMemory()
		defer db.Close()
		on := func(s *engine.Session) runner {
			return func(text string) ([]types.Tuple, error) {
				res, err := s.Execute(text)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			}
		}
		a, b := db.Session(), db.Session()
		defer a.Close()
		defer b.Close()
		runPoisonSequence(t, on(a), on(b), func(err error) bool { return errors.Is(err, engine.ErrTxnAborted) })
	})
	t.Run("remote", func(t *testing.T) {
		_, _, addr := startServer(t)
		on := func() runner {
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return func(text string) ([]types.Tuple, error) {
				res, err := execSQL(c, text)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			}
		}
		aborted := func(err error) bool {
			var remote *client.Error
			return errors.As(err, &remote) && strings.Contains(remote.Msg, engine.ErrTxnAborted.Error())
		}
		runPoisonSequence(t, on(), on(), aborted)
	})
}

func runPoisonSequence(t *testing.T, a, b runner, aborted func(error) bool) {
	t.Helper()
	must := func(run runner, text string) []types.Tuple {
		t.Helper()
		rows, err := run(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return rows
	}
	must(a, "CREATE TABLE u (id INT PRIMARY KEY, v INT)")
	must(a, "INSERT INTO u VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)")
	must(a, "BEGIN")
	must(a, "SELECT COUNT(*) FROM u")
	must(b, "UPDATE u SET v = 7 WHERE id = 3")

	if _, err := a("UPDATE u SET v = v + 100"); err == nil || !strings.Contains(err.Error(), "write conflict") {
		t.Fatalf("A's UPDATE over B's committed change = %v, want a write conflict", err)
	}
	for _, text := range []string{"SELECT * FROM u", "UPDATE u SET v = 1 WHERE id = 5", "COMMIT"} {
		if _, err := a(text); !aborted(err) {
			t.Errorf("%s after the failed UPDATE = %v, want ErrTxnAborted", text, err)
		}
	}
	// The COMMIT rolled back and ended the transaction: A runs again, and B
	// claims the rows A's failed statement had claimed without waiting.
	must(a, "SELECT COUNT(*) FROM u")
	must(b, "UPDATE u SET v = v WHERE id <= 2")

	var got []string
	for _, row := range must(b, "SELECT id, v FROM u ORDER BY id") {
		got = append(got, fmt.Sprintf("%d:%d", row[0].Int(), row[1].Int()))
	}
	if want := "1:0 2:0 3:7 4:0 5:0"; strings.Join(got, " ") != want {
		t.Errorf("after the refused COMMIT the table reads %s, want %s", strings.Join(got, " "), want)
	}
}
