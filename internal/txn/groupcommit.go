package txn

import (
	"runtime"
	"sync"
	"time"
)

// groupCommit coordinates leader/follower commit batching.
//
// Every durable append already knows the log offset its record ends at by
// the time it gets here. A committer whose end offset is not yet below the
// durable frontier (WAL.durableOff) either waits (a follower, when someone
// else's fsync is in flight) or becomes the leader: it writes the log
// buffer, which holds every record appended so far, issues one fsync,
// publishes the offset the write reached as durable, and wakes the cohort. Committers that arrived while the leader was syncing
// ride the same fsync if it covers them; the first one it doesn't cover
// becomes the next leader. One fsync therefore retires an entire convoy of
// commits, and durable commits/sec scales with concurrency instead of fsync
// rate.
//
// The coordinator has its own mutex, never taken together with WAL.mu or
// Manager.mu: the leader drops gc.mu across the write and the fsync, and
// takes WAL.mu only for the write, so the lock-order graph stays flat.
//
// Failure is sticky. fsync gives no second chances — after an error the
// kernel may have dropped the dirty pages while the file still looks
// appended — so the first write or fsync error poisons the log and every
// later durability claim fails with it.
// groupCommitWindow is how long a leader holds the barrier open for the
// convoy when other committers are in flight (WAL.pending > 1) — the same
// bargain as PostgreSQL's commit_delay gated on commit_siblings: a lone
// committer fsyncs immediately, concurrent committers trade a bounded
// latency bump for one fsync covering the whole group.
const groupCommitWindow = 200 * time.Microsecond

type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	syncing bool   // a leader's fsync is in flight
	err     error  // sticky first failure
	batches uint64 // fsyncs issued
	riders  uint64 // committers who rode someone else's fsync
}

func (g *groupCommit) init() {
	g.cond = sync.NewCond(&g.mu)
}

func (g *groupCommit) stats() (batches, riders uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batches, g.riders
}

// syncTo blocks until the log is durable up to offset end (or poisoned).
func (g *groupCommit) syncTo(w *WAL, end int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	led := false
	for {
		if g.err != nil {
			return g.err
		}
		if w.durableOff.Load() >= end {
			if !led {
				g.riders++
			}
			return nil
		}
		if g.syncing {
			g.cond.Wait()
			continue
		}
		// Become the leader: flush everything appended so far, which is at
		// least end and usually more — the convoy that queued behind us.
		g.syncing = true
		g.mu.Unlock()
		// Give every runnable committer one scheduling slot to reach the
		// barrier before we pick the fsync target. Under run-to-completion
		// scheduling (one P, nothing preempts a short commit) concurrency
		// never materialises on its own: each commit would finish before the
		// next goroutine ran, every leader would sync alone, and the convoy
		// could never bootstrap. One yield lets the cohort queue up as
		// followers; a lone committer pays a no-op yield and syncs at once.
		runtime.Gosched()
		if w.pending.Load() > 0 {
			// Other committers are mid-append right now: their records are
			// about to land. Hold the barrier open until they do (or the
			// window closes) so one fsync retires the whole convoy — without
			// the window the leader syncs under them and they queue for the
			// next fsync instead. A lone committer never pays this.
			// Yield-spin rather than sleep: the window is shorter than the
			// timer granularity a sleep rounds up to, and it almost always
			// closes early via the pending check.
			deadline := time.Now().Add(groupCommitWindow)
			for w.pending.Load() > 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		}
		// Write the log buffer: every record appended so far reaches the
		// medium in one write, and the fsync covers its bytes.
		target, err := w.flush()
		if err == nil {
			err = w.syncMedium()
		}
		g.mu.Lock()
		g.syncing = false
		g.batches++
		led = true
		if err != nil {
			g.err = err
		} else {
			w.publishDurable(target)
		}
		g.cond.Broadcast()
	}
}
