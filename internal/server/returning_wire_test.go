// Wire-level tests for RETURNING writes streamed as cursors, the Stmt frame's
// returns-rows flag, and context cancellation on client round trips.
package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/server/client"
	"repro/internal/types"
)

func TestReturningOverWireStreamsCursor(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 5)

	st, err := c.Prepare("UPDATE customers SET credit = credit + 100 WHERE id <= ? RETURNING id, credit")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cols := st.Columns(); len(cols) != 2 || cols[1] != "credit" {
		t.Fatalf("Prepare should report the RETURNING projection, got %v", cols)
	}

	before := srv.Stats().MessagesServed
	rows, err := st.Query(types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if rows.Row()[1].Float() <= 100 {
			t.Fatalf("returned credit %v does not reflect the update", rows.Row()[1])
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streamed %d RETURNING rows, want 3", n)
	}
	// The write and its projected rows are one Run, like a SELECT — not a
	// write-then-read pair.
	if trips := srv.Stats().MessagesServed - before; trips != 1 {
		t.Fatalf("RETURNING write cost %d round trips, want 1", trips)
	}
}

func TestClientNamedBind(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 3)

	st, err := c.Prepare("SELECT name FROM customers WHERE id = @id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BindNamed("id", types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("named bind yielded no row (err=%v)", rows.Err())
	}
	if err := st.BindNamed("nope", types.NewInt(1)); err == nil {
		t.Fatal("binding an unknown name should fail")
	}
}

func TestContextCancelUnblocksRoundTrip(t *testing.T) {
	_, _, addr := startServer(t)
	p := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer p.Close()

	// A deadline that expires while the connection is checked out fails the
	// next round trip before any bytes move.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	h, err := p.GetContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	if _, err := h.Exec("SELECT 1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
	// The connection never sent the frame, so it is still healthy: Release
	// keeps it, and it serves the next checkout.
	h.Release()
	if st := p.Stats(); st.Discards != 0 {
		t.Fatalf("pre-send cancellation discarded the connection: %+v", st)
	}
	h, err = p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("connection unusable after cleared context: %v", err)
	}
	if st := p.Stats(); st.Dials != 1 || st.IdleReuses != 1 {
		t.Fatalf("the cleared connection was not reused: %+v", st)
	}
}

func TestPoolGetContextCancelled(t *testing.T) {
	_, _, addr := startServer(t)
	p := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer p.Close()

	// Occupy the only slot, then a cancelled Get must not block.
	h, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.GetContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked GetContext: err = %v, want DeadlineExceeded", err)
	}
	h.Release()

	// With the slot free again, the checkout's context stays bound to the
	// handle: cancelling it fails the next round trip before it is sent.
	live, stop := context.WithCancel(context.Background())
	h, err = p.GetContext(live)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := h.Exec("SELECT id FROM t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("round trip after cancel: err = %v, want context.Canceled", err)
	}
	// Release unbinds it, so the connection serves the next checkout.
	h.Release()
	h, err = p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1: the cancelled handle's connection was not reused", st.Dials)
	}
}
