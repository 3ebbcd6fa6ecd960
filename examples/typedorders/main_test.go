package main

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

// cachesLine is the last line a run prints. Its type-reflection count reads
// a process-wide cache, so it depends on what ran before in the process.
var cachesLine = regexp.MustCompile(`(?m)^caches: 0 statement hit\(s\), \d+ type-reflection hit\(s\)\n`)

// Example runs the typed statements on an in-memory engine and holds them to
// their output: the stored rows with their defaults, the RETURNING rows of
// the update, the archive count and the typed read. The caches line is
// checked by TestRemoteMatchesLocal and left out here.
func Example() {
	var out bytes.Buffer
	if err := runLocal(&out); err != nil {
		panic(err)
	}
	fmt.Print(cachesLine.ReplaceAllString(out.String(), ""))
	// Output:
	// stored order 1 for Amalgamated Widget: total 1200.50 shipped=false
	// stored order 2 for Eastern Gadget: total 340.00 shipped=false
	// stored order 3 for Amalgamated Widget: total 88.25 shipped=false
	// shipped order 1 (1200.50)
	// shipped order 2 (340.00)
	// archived 2 shipped order(s)
	// order 1: Amalgamated Widget    1200.50 shipped=true
	// order 2: Eastern Gadget         340.00 shipped=true
}

// TestRemoteMatchesLocal runs the same statements through a connection pool
// against an in-process server and compares the output with the local run.
// Each run ends with its caches line, which is left out of the comparison.
func TestRemoteMatchesLocal(t *testing.T) {
	db := engine.OpenMemory()
	defer db.Close()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	var local, remote bytes.Buffer
	if err := runLocal(&local); err != nil {
		t.Fatal(err)
	}
	if err := runRemote(ln.Addr().String(), &remote); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{local.String(), remote.String()} {
		if !cachesLine.MatchString(out) {
			t.Fatalf("a run does not end with its caches line:\n%s", out)
		}
	}
	l, r := cachesLine.ReplaceAllString(local.String(), ""), cachesLine.ReplaceAllString(remote.String(), "")
	if l != r {
		t.Errorf("remote output differs from local\nlocal:\n%s\nremote:\n%s", l, r)
	}
	if !strings.Contains(r, "archived 2 shipped order(s)") {
		t.Errorf("remote run archived the wrong count:\n%s", r)
	}
}
