package engine

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// cachedStatement is one plan-cache entry: everything Prepare produces that
// does not depend on a particular bind frame. SELECT and DML entries both
// carry their plan tree — reads and writes share one planned pipeline — so a
// cache hit skips the parser, the planner and (for writes) view analysis and
// access-path selection. DDL and transaction control have no plan and never
// enter the cache.
//
// Entries are shared across sessions: after construction they are immutable
// (executing a plan compiles per-statement operator state elsewhere; the AST
// and plan tree are only read), except for lastUsed, which is atomic.
type cachedStatement struct {
	key  string
	stmt sql.Statement
	// paramNames has one entry per parameter ordinal ("" = positional), and
	// paramOrdinals maps each name to the ordinals it occupies.
	paramNames    []string
	paramOrdinals map[string][]int
	// paramKinds holds the kind the planner gave each ordinal (KindNull =
	// any).
	paramKinds []types.Kind
	// node is the plan tree (SELECT, INSERT, UPDATE, DELETE and EXPLAIN;
	// nil for DDL and transaction control).
	node plan.Node
	// columns are the SELECT's output column names ("plan" for EXPLAIN).
	columns []string
	// explain marks an EXPLAIN wrapper: node is rendered, never executed.
	explain bool
	// catVersion is the catalog schema version the entry was built at; a
	// different current version means the entry may be stale.
	catVersion uint64
	// lastUsed is the cache clock tick of the entry's most recent hit; the
	// eviction pass removes the entry with the smallest tick.
	lastUsed atomic.Uint64
}

// planCache is the engine-wide cache of prepared statement skeletons keyed by
// normalized SQL text, shared by every session so that N connections
// preparing the same form query compile it once. Lookups take the read lock
// only (recency is stamped with an atomic clock tick, not a list move), so
// the hot path scales across connection goroutines; inserts take the write
// lock and evict the least-recently-used entry when the cache is full.
// Per-session bind state never enters the cache — entries are immutable
// skeletons, and each Stmt compiles its own operators over its own frame.
type planCache struct {
	mu       sync.RWMutex
	capacity int
	entries  map[string]*cachedStatement
	// clock orders uses; it only ever advances, and ties are harmless (two
	// entries stamped in the same race are equally recent).
	clock atomic.Uint64
}

// defaultPlanCacheSize bounds how many distinct statement texts the engine
// keeps prepared across all sessions. Forms workloads cycle through a handful
// of shapes per window; 256 gives plenty of headroom before eviction.
const defaultPlanCacheSize = 256

// newPlanCache makes a cache of the given capacity: Open passes
// defaultPlanCacheSize, and the eviction tests a smaller one.
func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		entries:  make(map[string]*cachedStatement),
	}
}

// get returns the cached entry for key, stamping it most recently used.
func (c *planCache) get(key string) *cachedStatement {
	c.mu.RLock()
	entry := c.entries[key]
	c.mu.RUnlock()
	if entry != nil {
		entry.lastUsed.Store(c.clock.Add(1))
	}
	return entry
}

// put inserts (or replaces) an entry, evicting the least recently used one
// when the cache is full. It reports whether an eviction happened. Two
// sessions racing to cache the same key both succeed; the later write wins,
// which is fine — both entries were built from the same catalog version or
// the stale one will be replaced on its next version-checked lookup.
func (c *planCache) put(entry *cachedStatement) (evicted bool) {
	entry.lastUsed.Store(c.clock.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[entry.key]; !ok && len(c.entries) >= c.capacity {
		oldestKey := ""
		oldestTick := uint64(0)
		for k, e := range c.entries {
			if tick := e.lastUsed.Load(); oldestKey == "" || tick < oldestTick {
				oldestKey, oldestTick = k, tick
			}
		}
		delete(c.entries, oldestKey)
		evicted = true
	}
	c.entries[entry.key] = entry
	return evicted
}

// len returns the number of cached entries.
func (c *planCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// normalizeSQL canonicalizes statement text for plan-cache keying: runs of
// whitespace collapse to a single space (except inside string literals and
// quoted identifiers), and leading/trailing space and trailing semicolons are
// trimmed. Two spellings of the same statement that differ only in layout
// share one cache entry.
func normalizeSQL(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	inString, inQuoted := false, false
	pendingSpace := false
	for i := 0; i < len(text); i++ {
		ch := text[i]
		switch {
		case inString:
			b.WriteByte(ch)
			if ch == '\'' {
				inString = false
			}
		case inQuoted:
			b.WriteByte(ch)
			if ch == '"' {
				inQuoted = false
			}
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			pendingSpace = b.Len() > 0
		default:
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			b.WriteByte(ch)
			if ch == '\'' {
				inString = true
			}
			if ch == '"' {
				inQuoted = true
			}
		}
	}
	return strings.TrimRight(b.String(), "; ")
}
