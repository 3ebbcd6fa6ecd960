package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// host is one engine served on TCP loopback inside the bench process, the
// way a wowserver hosts it, so clients pay the real wire, server and socket
// path while the benchmark can still read every layer's counters.
type host struct {
	db       *engine.Database
	srv      *server.Server
	addr     string
	serveErr chan error
}

// serve starts a server over db on an ephemeral loopback port. setup runs
// before Serve, for the replica server's read-only and LSN settings.
func serve(db *engine.Database, setup func(*server.Server)) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{db: db, srv: server.New(db), addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	if setup != nil {
		setup(h.srv)
	}
	go func() { h.serveErr <- h.srv.Serve(ln) }()
	// Serve has taken the listener once Addr reports it; closing the server
	// before that would make Serve fail instead of return.
	if err := waitFor(10*time.Second, "the server to start", func() bool { return h.srv.Addr() != nil }); err != nil {
		return nil, err
	}
	return h, nil
}

// close stops the server, waits for Serve to return and closes the database.
func (h *host) close() error {
	err := h.srv.Close()
	if serr := <-h.serveErr; err == nil {
		err = serr
	}
	if cerr := h.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
