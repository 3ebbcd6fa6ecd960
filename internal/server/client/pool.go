package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// DefaultPoolSize bounds a pool that was configured with a zero size.
const DefaultPoolSize = 4

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = fmt.Errorf("client: pool is closed")

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// Size is the maximum number of open connections (DefaultPoolSize when
	// zero). Get blocks while all of them are checked out, so N workers
	// multiplex over K sockets instead of paying N dials.
	Size int
	// HealthCheckAfter skips the checkout ping for connections that were
	// released less than this long ago: a connection in steady rotation is
	// vouched for by its own recent traffic, so high-frequency checkout
	// patterns (one checkout per operation, as the typed sqlair layer does)
	// do not pay a ping round trip per operation. Zero pings every checkout.
	// A connection that died inside the window is still caught — the first
	// operation on it fails, the handle is discarded at Release, and the
	// caller retries on a fresh connection.
	HealthCheckAfter time.Duration
}

// Pool is the remote handle: a bounded set of wowserver connections shared by
// many workers. Checkout (Get) hands out an idle connection after a liveness
// check — a connection that died while idle is discarded and replaced, so
// callers never see a stale socket — or dials a fresh one while the pool is
// under its size limit. Each pooled connection keeps the statements it has
// prepared, keyed by SQL text, so a worker re-running a shape the connection
// has seen skips the Prepare round trip entirely.
//
// A checked-out PooledConn is single-goroutine, like the Conn it wraps; the
// Pool itself is safe for concurrent use from any number of workers.
type Pool struct {
	addr string
	cfg  PoolConfig

	// tokens is a counting semaphore: a buffered channel holding one slot
	// per allowed connection. Acquire by send, release by receive.
	tokens chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	idle   []*poolConn
	closed bool

	dials       atomic.Uint64
	checkouts   atomic.Uint64
	idleReuses  atomic.Uint64
	stmtHits    atomic.Uint64
	healthFails atomic.Uint64
	discards    atomic.Uint64
}

// PoolStats summarises the pool's counters.
type PoolStats struct {
	// Dials counts connections opened; Checkouts counts Gets served;
	// IdleReuses counts checkouts satisfied by an idle connection.
	Dials      uint64
	Checkouts  uint64
	IdleReuses uint64
	// StmtCacheHits counts statement preparations satisfied by a
	// connection's prepared-statement cache (no Prepare round trip).
	StmtCacheHits uint64
	// HealthCheckFailures counts idle connections that failed the checkout
	// ping and were discarded; Discards counts connections dropped for any
	// reason (failed ping, transport error, open-transaction rollback
	// failure).
	HealthCheckFailures uint64
	Discards            uint64
	// Idle is the current idle-connection count.
	Idle int
}

// poolConn is one pooled connection plus its prepared-statement cache.
type poolConn struct {
	conn  *Conn
	stmts map[string]*Stmt
	// lastUsed is when the connection was last released; HealthCheckAfter
	// measures idleness against it.
	lastUsed time.Time
}

// NewPool creates a pool over the server address. No connection is dialed
// until the first checkout, and the pool starts no goroutine.
func NewPool(addr string, cfg PoolConfig) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	return &Pool{
		addr:   addr,
		cfg:    cfg,
		tokens: make(chan struct{}, cfg.Size),
		done:   make(chan struct{}),
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Dials:               p.dials.Load(),
		Checkouts:           p.checkouts.Load(),
		IdleReuses:          p.idleReuses.Load(),
		StmtCacheHits:       p.stmtHits.Load(),
		HealthCheckFailures: p.healthFails.Load(),
		Discards:            p.discards.Load(),
		Idle:                idle,
	}
}

// GetContext checks a connection out of the pool, blocking while all of them
// are in use. Idle connections are health-checked (one Ping round trip)
// before they are handed out; a dead one is discarded and a fresh connection
// dialed in its place. Release the result with PooledConn.Release.
//
// A cancellation (or deadline) of ctx while waiting for a free slot stops the
// wait, and the checkout health check runs under the context too. The context
// then stays bound to the returned connection until Release, so cancellation
// also interrupts the round trips made through it (see Conn.setContext).
func (p *Pool) GetContext(ctx context.Context) (*PooledConn, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.done:
		return nil, ErrPoolClosed
	case p.tokens <- struct{}{}:
	}
	for {
		if err := ctx.Err(); err != nil {
			<-p.tokens
			return nil, err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			<-p.tokens
			return nil, ErrPoolClosed
		}
		var pc *poolConn
		if n := len(p.idle); n > 0 {
			pc = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if pc == nil {
			conn, err := Dial(p.addr)
			if err != nil {
				<-p.tokens
				return nil, err
			}
			conn.setContext(ctx)
			p.dials.Add(1)
			p.checkouts.Add(1)
			return &PooledConn{pool: p, pc: &poolConn{conn: conn, stmts: make(map[string]*Stmt)}}, nil
		}
		pc.conn.setContext(ctx)
		if !pc.conn.healthy() || (p.needsPing(pc) && pc.conn.ping() != nil) {
			p.healthFails.Add(1)
			p.discard(pc)
			continue // try the next idle connection, or dial
		}
		p.checkouts.Add(1)
		p.idleReuses.Add(1)
		return &PooledConn{pool: p, pc: pc}, nil
	}
}

// needsPing reports whether an idle connection has been out of rotation long
// enough that checkout should probe it before handing it out.
func (p *Pool) needsPing(pc *poolConn) bool {
	if p.cfg.HealthCheckAfter <= 0 {
		return true
	}
	return time.Since(pc.lastUsed) >= p.cfg.HealthCheckAfter
}

// With checks a connection out, runs fn and releases it — the convenience
// shape for workers whose whole unit of work fits one function.
func (p *Pool) With(fn func(*PooledConn) error) error {
	h, err := p.GetContext(context.Background())
	if err != nil {
		return err
	}
	defer h.Release()
	return fn(h)
}

// discard closes a connection without returning it to the idle list; the
// statements it cached close with it.
func (p *Pool) discard(pc *poolConn) {
	p.discards.Add(1)
	pc.conn.Close()
}

// Close closes every idle connection and fails all future checkouts.
// Connections currently checked out are closed when released.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.done)
	for _, pc := range idle {
		pc.conn.Close()
	}
	return nil
}

// PooledConn is one checked-out connection. It exposes the connection's API
// with the pool's prepared-statement reuse layered on top: Prepare (and the
// Exec convenience) consult the connection's statement cache first, so
// repeating shapes over a pooled connection costs no Prepare round trips
// after the first.
type PooledConn struct {
	pool     *Pool
	pc       *poolConn
	released bool
}

// errReleased guards every handle method: a PooledConn kept past its Release
// must never touch the connection, which by then belongs to the idle list or
// to another worker.
var errReleased = fmt.Errorf("client: pooled connection already released")

// use validates that the handle still owns its connection.
func (h *PooledConn) use() error {
	if h.released {
		return errReleased
	}
	return nil
}

// maxCachedStmts bounds one pooled connection's statement cache. Past it an
// arbitrary cached statement is closed and replaced, so a workload cycling
// through unbounded distinct SQL text (generated table names, say) cannot
// grow the cache — on either end of the wire — without limit.
const maxCachedStmts = 64

// Prepare returns the connection's cached statement for the text, preparing
// and caching it on first use. The statement is owned by the pool: its Close
// does nothing, and it stays live for the next worker that checks this
// connection out.
func (h *PooledConn) Prepare(text string) (*Stmt, error) {
	if err := h.use(); err != nil {
		return nil, err
	}
	return h.pool.prepare(h.pc, text)
}

// prepare returns pc's cached statement for the text, preparing and caching
// it on first use.
func (p *Pool) prepare(pc *poolConn, text string) (*Stmt, error) {
	if st, ok := pc.stmts[text]; ok {
		p.stmtHits.Add(1)
		return st, nil
	}
	if len(pc.stmts) >= maxCachedStmts {
		for evictText, evictStmt := range pc.stmts {
			delete(pc.stmts, evictText)
			evictStmt.close()
			break
		}
	}
	st, err := pc.conn.Prepare(text)
	if err != nil {
		return nil, err
	}
	st.pooled = true
	pc.stmts[text] = st
	return st, nil
}

// Exec prepares (or reuses) the statement and executes it with the args.
func (h *PooledConn) Exec(text string, args ...types.Value) (*Result, error) {
	st, err := h.Prepare(text)
	if err != nil {
		return nil, err
	}
	return st.Exec(args...)
}

// Release returns the connection to the pool, unbinding the context
// GetContext bound to it. A connection that hit a transport error is
// discarded instead; one released with a transaction still open runs
// ROLLBACK first, through the statement cache as Exec would (and is discarded
// if the rollback fails). Release is idempotent.
func (h *PooledConn) Release() {
	if h.released {
		return
	}
	h.released = true
	p := h.pool
	pc := h.pc
	defer func() { <-p.tokens }()
	pc.conn.setContext(nil)
	if !pc.conn.healthy() {
		p.discard(pc)
		return
	}
	if pc.conn.inTxn {
		st, err := p.prepare(pc, "ROLLBACK")
		if err == nil {
			_, err = st.Exec()
		}
		if err != nil {
			p.discard(pc)
			return
		}
	}
	pc.lastUsed = time.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.discard(pc)
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}
