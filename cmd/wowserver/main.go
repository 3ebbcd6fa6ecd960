// Command wowserver serves the engine over the wire protocol: a TCP session
// manager in front of one shared database, one goroutine per connection, all
// connections sharing the engine-wide plan cache so concurrent clients
// preparing the same statements compile them once. Connections negotiate
// protocol v5 at connect (Hello/HelloOK); incompatible clients are refused
// with a versioned error.
//
// Usage:
//
//	wowserver [-addr 127.0.0.1:4045] [-data file.db] [-wal file.wal]
//	          [-metrics 127.0.0.1:4046] [-checkpoint 30s] [-replica-of addr]
//
// With -replica-of, the server runs as a read-only physical replica: it
// subscribes to the primary at addr, streams the primary's WAL from the
// beginning into a fresh in-memory engine through the log applier crash
// recovery uses — each primary transaction adopted under the primary's id,
// visible whole at its COMMIT — and serves SELECTs against its own MVCC
// snapshots while refusing writes and explicit transactions. A severed
// stream resubscribes from the applied frontier. Replicas take no -data/-wal
// of their own; a restarted replica simply re-streams the full history
// (checkpoints never truncate the primary's log, so LSN 0 is always
// available).
//
// The -wal log and its checkpoint file are the only durable state: a restart
// rebuilds the database from them, and the log alone still holds
// everything. -data names a spill file for pages evicted from the buffer
// pool; it is created empty at startup, removed at shutdown, and never read
// by recovery.
//
// With -metrics, a side-channel HTTP listener serves the server, engine and
// plan-cache counters as JSON under /metrics (see README for the fields).
// With -checkpoint, a background checkpointer periodically writes a
// snapshot-consistent image of the database into a checkpoint file beside
// the WAL (file.wal.ckpt, replaced by rename) so a restart replays only the
// log tail after it; at startup the server reports what recovery did (image
// rows, tail records, torn bytes discarded).
//
// The server runs until SIGINT/SIGTERM, then disconnects every client
// (rolling back their open transactions), closes the log, removes the spill
// file and exits 0; a failed close exits 1. Clients connect with
// internal/server/client (one Conn per worker, or a client.Pool to
// multiplex), "wowsql -connect addr", or anything speaking the frame format
// documented in the README.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4045", "TCP address to listen on")
	dataPath := flag.String("data", "", "spill file for evicted pages, removed on exit; not durable, only -wal persists (default: in-memory)")
	walPath := flag.String("wal", "", "write-ahead log file, the only durable state (default: in-memory)")
	metricsAddr := flag.String("metrics", "", "HTTP address serving /metrics as JSON (default: disabled)")
	checkpoint := flag.Duration("checkpoint", 0, "periodic WAL checkpoint interval, e.g. 30s (default: disabled)")
	replicaOf := flag.String("replica-of", "", "run as a read-only replica streaming from the primary at this address")
	flag.Parse()

	if *replicaOf != "" && (*dataPath != "" || *walPath != "" || *checkpoint != 0) {
		fatal(fmt.Errorf("-replica-of keeps all state in memory; it cannot be combined with -data, -wal or -checkpoint"))
	}

	db, err := engine.Open(engine.Options{
		DataPath: *dataPath, WALPath: *walPath, CheckpointInterval: *checkpoint,
	})
	if err != nil {
		fatal(err)
	}
	if rec := db.Recovery(); rec.Recovered {
		from := "log start"
		if rec.FromCheckpoint {
			from = fmt.Sprintf("checkpoint image (%d rows)", rec.ImageRows)
		}
		fmt.Printf("wowserver: recovered from %s in %s: %d tail record(s) read, %d applied, %d torn byte(s) discarded\n",
			from, rec.Duration.Round(time.Millisecond), rec.TailRecords, rec.TailApplied, rec.BytesDiscarded)
	}

	srv := server.New(db)
	var replica *server.Replica
	if *replicaOf != "" {
		replica = server.NewReplica(db, *replicaOf)
		srv.SetReadOnly(true)
		srv.SetLSNSource(replica.AppliedLSN)
		replica.Start()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if replica != nil {
		fmt.Printf("%s listening on %s (protocol v%s), read-only replica of %s\n", server.Banner, ln.Addr(), wire.Current, *replicaOf)
	} else {
		fmt.Printf("%s listening on %s (protocol v%s)\n", server.Banner, ln.Addr(), wire.Current)
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "wowserver: metrics:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("wowserver: %s, shutting down\n", sig)
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if replica != nil {
		replica.Stop()
		rst := replica.Stats()
		fmt.Printf("wowserver: replica applied %d transaction(s) through LSN %d\n", rst.TxnsApplied, rst.AppliedLSN)
	}
	stats := srv.Stats()
	fmt.Printf("wowserver: served %d connection(s), %d message(s), %d row(s) sent, %d handshake(s) rejected\n",
		stats.ConnectionsAccepted, stats.MessagesServed, stats.RowsSent, stats.HandshakesRejected)
	if err := db.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wowserver:", err)
	os.Exit(1)
}
