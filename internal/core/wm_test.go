package core

import (
	"testing"

	"repro/internal/server/client"
)

// TestClosedWindowsCloseTheirSessions opens and closes a local window with a
// detail block five times: Open opens a session for the window and one for
// its detail, and Close must close both. A window over a caller's connection
// leaves the connection open: after Close it still runs statements and
// serves a new window.
func TestClosedWindowsCloseTheirSessions(t *testing.T) {
	m, forms := newTestManager(t)
	before := m.db.Stats()
	for i := 0; i < 5; i++ {
		w, err := m.Open(forms["customer_card"], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Close(w)
	}
	after := m.db.Stats()
	opened, closed := after.SessionsOpened-before.SessionsOpened, after.SessionsClosed-before.SessionsClosed
	if opened != 10 || closed != opened {
		t.Fatalf("5 open/close cycles opened %d sessions and closed %d; want 10 and 10", opened, closed)
	}

	_, addr := serveRemote(t, m.db)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	src := NewRemoteSource(conn)
	w, err := m.OpenOn(forms["customer_card"], src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close(w)
	st, err := src.Prepare("SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatalf("the connection after its window closed: %v", err)
	}
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || rows.Row()[0].Int() != 4 {
		t.Fatalf("COUNT(*) over the connection = %v (%v), want 4", rows.Row(), rows.Err())
	}
	rows.Close()
	again, err := m.OpenOn(forms["customer_card"], src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.RowCount() != 4 {
		t.Fatalf("a second window over the connection shows %d rows, want 4", again.RowCount())
	}
	m.Close(again)
}
