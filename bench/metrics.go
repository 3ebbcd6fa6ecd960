package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; the package test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, reported on every
// workload by an untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload (core.* outside browse.remote,
// repl.* outside repl.rw, ...) reads 0 there.
var perLayer = []metricDef{
	// Demoted end-to-end metrics: see README.md, "What is not gated".
	{"p99_us", "us", "lower", 0},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0},

	{"trace_overhead_ratio", "ratio", "higher", 0},
	{"unattributed_us", "us", "lower", 0},
	{"share.core", "ratio", "lower", 0},
	{"share.sqlair", "ratio", "lower", 0},
	{"share.wire", "ratio", "lower", 0},
	{"share.engine", "ratio", "lower", 0},
	{"share.exec_storage", "ratio", "lower", 0},
	{"share.txn_wal", "ratio", "lower", 0},
	{"share.repl_apply", "ratio", "lower", 0},
	{"share.unattributed", "ratio", "lower", 0},

	{"core.pgdn_us", "us", "lower", 0},
	{"core.end_us", "us", "lower", 0},
	{"core.query_us", "us", "lower", 0},
	{"core.refresh_us", "us", "lower", 0},
	{"core.save_us", "us", "lower", 0},
	{"core.rows_fetched_per_key", "1/op", "lower", 0},
	{"core.queries_per_key", "1/op", "lower", 0},

	{"sqlair.overhead_us", "us", "lower", 0},
	{"sqlair.stmt_cache_hit_ratio", "ratio", "higher", 0},

	{"wire.msgs_per_op", "1/op", "lower", 0},
	{"wire.self_us", "us", "lower", 0},
	{"wire.codec_ns_per_row", "ns", "lower", 0},
	{"client.stmt_cache_hit_ratio", "ratio", "higher", 0},
	{"client.dials", "count", "lower", 0},

	{"sql.parse_us", "us", "lower", 0},
	{"plan.build_us", "us", "lower", 0},
	{"engine.prepare_hit_us", "us", "lower", 0},
	{"engine.prepare_miss_us", "us", "lower", 0},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"engine.exec_us", "us", "lower", 0},

	{"storage.page_fetches_per_op", "1/op", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.evictions_per_op", "1/op", "lower", 0},
	{"btree.search_ns", "ns", "lower", 0},
	{"storage.heap_get_ns", "ns", "lower", 0},

	{"txn.fsyncs_per_commit", "ratio", "lower", 0},
	{"txn.wal_bytes_per_user_byte", "B/B", "lower", 0},
	{"txn.wal_append_us", "us", "lower", 0},
	{"txn.fsync_us", "us", "lower", 0},
	{"txn.checkpoints", "count", "lower", 0},
	{"txn.checkpoint_ms", "ms", "lower", 0},
	{"txn.checkpoint_bytes", "bytes", "lower", 0},
	{"txn.snapshots_per_op", "1/op", "lower", 0},
	{"txn.versions_gced", "count", "higher", 0},
	{"txn.conflicts", "count", "lower", 0},
	{"txn.recover_ms", "ms", "lower", 0},
	{"txn.image_rows", "count", "lower", 0},
	{"txn.tail_records", "count", "lower", 0},

	{"repl.write_us", "us", "lower", 0},
	{"repl.wait_us", "us", "lower", 0},
	{"repl.read_us", "us", "lower", 0},
	{"repl.wal_bytes_per_txn", "bytes", "lower", 0},
	{"repl.txns_skipped", "count", "lower", 0},
}

// workloadDef registers one workload under its permanent name.
type workloadDef struct {
	name    string
	why     string
	clients int
	make    func(env) workload
}

var workloads = []workloadDef{
	{"browse.remote", "forms users paging, querying and saving over the wire on a table larger than the buffer pool: core/pager, plan, exec and btree do the work, the WAL none",
		browseClients, func(e env) workload { return newBrowse(e) }},
	{"oltp.read", "typed point and short range reads through one connection pool on data that fits the pool: wire, server, client and sqlair do the work, pager and WAL none",
		readClients, func(e env) workload { return newOltpRead(e) }},
	{"oltp.durable", "local committers inserting, updating and reading back on a file-logged engine that group-commits and checkpoints: the txn layer does the work, the wire none",
		durableClients, func(e env) workload { return newDurable(e) }},
	{"restart.recover", "recover a fixed crash image, answer the first query, close and reopen: the txn layer replaying instead of appending, and the on-disk footprint",
		1, func(e env) workload { return newRestart(e) }},
	{"repl.rw", "write on the primary, wait for the replica to apply it, read it back from the replica: WAL streaming and the applier do the work, and no backlog can grow",
		1, func(e env) workload { return newRepl(e) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
