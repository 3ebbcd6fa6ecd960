// Fleet routing: one primary plus any number of read replicas behind a
// single checkout API. Writes and explicit transactions always pin to the
// primary. Reads round-robin across replicas whose applied LSN is within a
// configurable byte bound of the primary's durable frontier; a replica that
// lags past the bound is skipped, and when every replica does, reads fall
// back to the primary — correctness degrades to "slower", never to "stale
// beyond the bound".
//
// Freshness flows entirely through the LSN piggyback: the primary
// stamps its durable frontier on every response, replicas stamp their
// applied frontier, and each Pool folds what its connections see into an
// LSN high-water mark. Because both numbers are byte offsets into the same
// log, primary minus replica is the lag in WAL bytes. A background prober
// pings every pool on a short interval so an idle replica's view cannot go
// stale enough to wedge routing (a freshly started fleet has seen no
// traffic at all — without the probe, every replica would look infinitely
// behind and reads would pin to the primary forever).
package client

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultMaxLagBytes is the staleness bound applied when FleetConfig leaves
// MaxLagBytes zero: a replica more than this many WAL bytes behind the
// primary's durable frontier is skipped for reads.
const DefaultMaxLagBytes = 1 << 20

// DefaultProbeInterval is the background freshness-probe cadence when
// FleetConfig leaves ProbeInterval zero.
const DefaultProbeInterval = 50 * time.Millisecond

// FleetConfig tunes a Fleet.
type FleetConfig struct {
	// Pool configures every member pool (primary and replicas alike).
	Pool PoolConfig
	// MaxLagBytes is the read-staleness bound in WAL bytes
	// (DefaultMaxLagBytes when zero).
	MaxLagBytes uint64
	// ProbeInterval is how often the background prober pings each member to
	// refresh its LSN view (DefaultProbeInterval when zero; negative
	// disables probing — tests drive freshness by hand).
	ProbeInterval time.Duration
}

// Fleet routes over one primary pool and zero or more replica pools.
// GetWrite and GetRead are safe for concurrent use.
type Fleet struct {
	primary  *Pool
	replicas []*Pool
	cfg      FleetConfig

	// rr distributes reads across eligible replicas round-robin.
	rr atomic.Uint64
	// primaryLSN is the highest durable frontier observed on the primary;
	// replica lag is measured against it.
	primaryLSN atomic.Uint64

	proberDone chan struct{}
	closed     atomic.Bool

	readCheckouts    atomic.Uint64
	replicaReads     atomic.Uint64
	primaryFallbacks atomic.Uint64
	staleSkips       atomic.Uint64
}

// FleetStats summarises routing behaviour.
type FleetStats struct {
	// PrimaryLSN is the highest durable frontier seen on the primary;
	// ReplicaLSNs holds each replica pool's applied high-water, in the
	// order the replicas were given to NewFleet.
	PrimaryLSN  uint64
	ReplicaLSNs []uint64
	// ReadCheckouts counts GetRead calls; ReplicaReads counts those served
	// by a replica; PrimaryFallbacks counts those that fell back to the
	// primary because no replica was within the staleness bound.
	ReadCheckouts    uint64
	ReplicaReads     uint64
	PrimaryFallbacks uint64
	// StaleSkips counts individual replica candidates passed over for
	// exceeding the bound (one GetRead can skip several).
	StaleSkips uint64
}

// NewFleet builds a fleet from the primary's address and the replicas'.
// With no replicas every read goes to the primary and the fleet degenerates
// to a plain pool with a routing API.
func NewFleet(primaryAddr string, replicaAddrs []string, cfg FleetConfig) *Fleet {
	if cfg.MaxLagBytes == 0 {
		cfg.MaxLagBytes = DefaultMaxLagBytes
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	f := &Fleet{
		primary:    NewPool(primaryAddr, cfg.Pool),
		cfg:        cfg,
		proberDone: make(chan struct{}),
	}
	for _, addr := range replicaAddrs {
		f.replicas = append(f.replicas, NewPool(addr, cfg.Pool))
	}
	if cfg.ProbeInterval > 0 {
		go f.probeLoop()
	} else {
		close(f.proberDone)
	}
	return f
}

// Primary exposes the primary pool for callers that need it directly.
func (f *Fleet) Primary() *Pool { return f.primary }

// Replicas exposes the replica pools in NewFleet order.
func (f *Fleet) Replicas() []*Pool { return f.replicas }

// GetWrite checks a primary connection out: the only place writes, DDL and
// explicit transactions may run.
func (f *Fleet) GetWrite() (*PooledConn, error) {
	h, err := f.primary.Get()
	if err != nil {
		return nil, err
	}
	f.notePrimary(h.Conn().LastLSN())
	return h, nil
}

// GetRead checks out a connection for a read-only statement, preferring the
// freshest-enough replica. The second result reports whether the connection
// is a replica's — a caller that decides to write anyway (it should not)
// would hit the replica's read-only refusal, not silent divergence.
func (f *Fleet) GetRead() (*PooledConn, bool, error) {
	f.readCheckouts.Add(1)
	if n := len(f.replicas); n > 0 {
		floor := f.lagFloor()
		start := f.rr.Add(1)
		for i := 0; i < n; i++ {
			p := f.replicas[(start+uint64(i))%uint64(n)]
			if p.LSNHighWater() < floor {
				f.staleSkips.Add(1)
				continue
			}
			h, err := p.Get()
			if err != nil {
				// A dead replica must not fail reads while the primary is up.
				f.staleSkips.Add(1)
				continue
			}
			f.replicaReads.Add(1)
			return h, true, nil
		}
		f.primaryFallbacks.Add(1)
	}
	h, err := f.primary.Get()
	if err != nil {
		return nil, false, err
	}
	f.notePrimary(h.Conn().LastLSN())
	return h, false, nil
}

// lagFloor computes the minimum applied LSN a replica must have reached to
// be eligible for reads right now.
func (f *Fleet) lagFloor() uint64 {
	lsn := f.PrimaryLSN()
	if lsn <= f.cfg.MaxLagBytes {
		return 0
	}
	return lsn - f.cfg.MaxLagBytes
}

// PrimaryLSN returns the highest durable frontier the fleet has observed on
// the primary: what the router itself noted at checkout, folded with what
// the primary pool's connections reported as they were released.
func (f *Fleet) PrimaryLSN() uint64 {
	lsn := f.primaryLSN.Load()
	if hw := f.primary.LSNHighWater(); hw > lsn {
		lsn = hw
	}
	return lsn
}

// notePrimary folds an observed primary frontier into the fleet's view.
func (f *Fleet) notePrimary(lsn uint64) {
	for {
		prev := f.primaryLSN.Load()
		if lsn <= prev || f.primaryLSN.CompareAndSwap(prev, lsn) {
			return
		}
	}
}

// Probe pings the primary and every replica once, refreshing each pool's
// LSN view. The background prober calls it on a timer; tests call it
// directly for deterministic freshness.
func (f *Fleet) Probe() {
	f.probePool(f.primary, true)
	for _, p := range f.replicas {
		f.probePool(p, false)
	}
}

func (f *Fleet) probePool(p *Pool, isPrimary bool) {
	h, err := p.Get()
	if err != nil {
		return
	}
	defer h.Release()
	if h.Conn().Ping() == nil && isPrimary {
		f.notePrimary(h.Conn().LastLSN())
	}
}

func (f *Fleet) probeLoop() {
	defer close(f.proberDone)
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for !f.closed.Load() {
		<-t.C
		f.Probe()
	}
}

// Stats returns a snapshot of the fleet's routing counters and LSN views.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{
		PrimaryLSN:       f.PrimaryLSN(),
		ReadCheckouts:    f.readCheckouts.Load(),
		ReplicaReads:     f.replicaReads.Load(),
		PrimaryFallbacks: f.primaryFallbacks.Load(),
		StaleSkips:       f.staleSkips.Load(),
	}
	for _, p := range f.replicas {
		st.ReplicaLSNs = append(st.ReplicaLSNs, p.LSNHighWater())
	}
	return st
}

// Close stops the prober and closes every member pool, returning the first
// error.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return fmt.Errorf("client: fleet is closed")
	}
	<-f.proberDone
	err := f.primary.Close()
	for _, p := range f.replicas {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
