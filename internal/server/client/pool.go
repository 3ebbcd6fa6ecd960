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

// DefaultMaxLagBytes is the staleness bound applied when PoolConfig leaves
// MaxLagBytes zero: a replica more than this many WAL bytes behind the
// primary's durable frontier is skipped for reads.
const DefaultMaxLagBytes = 1 << 20

// probeInterval is how often a pool with replicas pings the primary and every
// replica to refresh their LSN views.
const probeInterval = 50 * time.Millisecond

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
	// Replicas lists read replicas of the pool's server (the primary).
	// GetRead routes to them; Get never does. Each replica gets its own
	// connections, bounded by Size like the primary's.
	Replicas []string
	// MaxLagBytes is GetRead's staleness bound in WAL bytes
	// (DefaultMaxLagBytes when zero).
	MaxLagBytes uint64
}

// Pool is the remote handle: a bounded set of wowserver connections shared by
// many workers. Checkout (Get) hands out an idle connection after a liveness
// check — a connection that died while idle is discarded and replaced, so
// callers never see a stale socket — or dials a fresh one while the pool is
// under its size limit. Each pooled connection keeps the statements it has
// prepared, keyed by SQL text, so a worker re-running a shape the connection
// has seen skips the Prepare round trip entirely.
//
// Writes, DDL and explicit transactions run on Get's connections, which are
// always the primary's. A pool configured with Replicas also serves GetRead,
// which round-robins across replicas whose applied LSN is within MaxLagBytes
// of the primary's durable frontier and falls back to the primary when none
// is: correctness degrades to "slower", never to "stale beyond the bound".
// Freshness flows through the LSN every response carries: each pool folds
// what its connections see into an LSN high-water mark, and both numbers are
// byte offsets into the same log, so primary minus replica is the lag in WAL
// bytes. A background prober pings every member each probeInterval so an
// idle replica's view cannot go stale enough to wedge routing.
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

	// lsnHW is the highest durable LSN any of the pool's connections has
	// seen the server report. On the primary it is the frontier GetRead
	// measures lag against; on a replica's pool, the replica's applied
	// position as last seen.
	lsnHW atomic.Uint64

	// replicas holds one pool per PoolConfig.Replicas address; rr spreads
	// GetRead across them. proberDone is closed when the prober exits (nil
	// without replicas, which start no prober).
	replicas   []*Pool
	rr         atomic.Uint64
	proberDone chan struct{}
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
	// LSNHighWater is the highest durable LSN the pool's connections have
	// seen the server report.
	LSNHighWater uint64
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
// until the first checkout; only a pool with replicas starts a goroutine, its
// prober, which Close stops.
func NewPool(addr string, cfg PoolConfig) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	if cfg.MaxLagBytes == 0 {
		cfg.MaxLagBytes = DefaultMaxLagBytes
	}
	p := &Pool{
		addr:   addr,
		cfg:    cfg,
		tokens: make(chan struct{}, cfg.Size),
		done:   make(chan struct{}),
	}
	if len(cfg.Replicas) > 0 {
		member := PoolConfig{Size: cfg.Size, HealthCheckAfter: cfg.HealthCheckAfter}
		for _, raddr := range cfg.Replicas {
			p.replicas = append(p.replicas, NewPool(raddr, member))
		}
		p.proberDone = make(chan struct{})
		go p.probeLoop()
	}
	return p
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
		LSNHighWater:        p.lsnHW.Load(),
	}
}

// noteLSN folds a connection's latest observed LSN into the pool's
// high-water mark.
func (p *Pool) noteLSN(c *Conn) {
	lsn := c.LastLSN()
	for {
		prev := p.lsnHW.Load()
		if lsn <= prev || p.lsnHW.CompareAndSwap(prev, lsn) {
			return
		}
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

// GetRead checks out a connection for a read-only statement, preferring a
// replica whose last seen applied LSN is within MaxLagBytes of the primary's
// high-water mark. Replicas are tried round-robin; a stale one, or one that
// cannot be reached, is skipped, and with none left the read goes to the
// primary. The second result reports whether the connection is a replica's —
// a write sent there anyway hits the replica's read-only refusal, not silent
// divergence. Without replicas GetRead checks out a primary connection.
//
//wowvet:ignore deadapi -- ROADMAP item 3 routes the remote pager's reads through it
func (p *Pool) GetRead() (*PooledConn, bool, error) {
	if n := uint64(len(p.replicas)); n > 0 {
		floor := p.lagFloor()
		start := p.rr.Add(1)
		for i := uint64(0); i < n; i++ {
			r := p.replicas[(start+i)%n]
			if r.lsnHW.Load() < floor {
				continue
			}
			// A dead replica must not fail reads while the primary is up.
			if h, err := r.GetContext(context.Background()); err == nil {
				return h, true, nil
			}
		}
	}
	h, err := p.GetContext(context.Background())
	return h, false, err
}

// lagFloor is the lowest applied LSN a replica must have reached to serve
// reads right now.
func (p *Pool) lagFloor() uint64 {
	lsn := p.lsnHW.Load()
	if lsn <= p.cfg.MaxLagBytes {
		return 0
	}
	return lsn - p.cfg.MaxLagBytes
}

// probeLoop pings the primary and every replica each probeInterval until
// Close. Without it a replica's LSN view only moves with read traffic, and
// one that fell behind once would never be routed to again.
func (p *Pool) probeLoop() {
	defer close(p.proberDone)
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	members := append([]*Pool{p}, p.replicas...)
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		for _, member := range members {
			if h, err := member.GetContext(context.Background()); err == nil {
				_ = h.pc.conn.ping() // a failed ping breaks the conn; Release discards it
				h.Release()
			}
		}
	}
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

// Close closes every idle connection, stops the prober and closes the replica
// pools, and fails all future checkouts. Connections currently checked out
// are closed when released.
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
	// The replicas close first: a prober blocked checking one out is released
	// by its closing, so waiting for the prober cannot hang.
	for _, r := range p.replicas {
		r.Close()
	}
	if p.proberDone != nil {
		<-p.proberDone
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
	if st, ok := h.pc.stmts[text]; ok {
		h.pool.stmtHits.Add(1)
		return st, nil
	}
	if len(h.pc.stmts) >= maxCachedStmts {
		for evictText, evictStmt := range h.pc.stmts {
			delete(h.pc.stmts, evictText)
			evictStmt.close()
			break
		}
	}
	st, err := h.pc.conn.Prepare(text)
	if err != nil {
		return nil, err
	}
	st.pooled = true
	h.pc.stmts[text] = st
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
// discarded instead; one released with a transaction still open is rolled
// back first (and discarded if the rollback fails). Release is idempotent.
func (h *PooledConn) Release() {
	if h.released {
		return
	}
	h.released = true
	p := h.pool
	pc := h.pc
	defer func() { <-p.tokens }()
	pc.conn.setContext(nil)
	p.noteLSN(pc.conn)
	if !pc.conn.healthy() {
		p.discard(pc)
		return
	}
	if pc.conn.inTxn {
		if err := pc.conn.Rollback(); err != nil {
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
