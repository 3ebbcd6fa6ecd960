package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/types"
)

// The window cursor (pager)
//
// A window is a live view the user scrolls through, not a snapshot the
// terminal re-fetches wholesale. The pager is what makes that true at scale:
// it keeps a bounded ring of fetched rows around the cursor (one buffer page
// = the window's visible rows × pageFactor) and pages through the relation on
// demand over the engine's streaming cursors, so a refresh or a PageDown over
// a million-row table fetches O(page) rows, never O(table).
//
// Re-positioning is cheap because the pager navigates by *keyset*, not by
// offset: the window's total order (the form's ORDER BY plus its key as the
// tiebreaker) lets "the page after row r" be expressed as an ordinary
// predicate —
//
//	(k1 > @ks_0) OR (k1 = @ks_0 AND k2 > @ks_1) ...
//
// — which runs through the same prepared-statement/plan-cache path as every
// other window query (and picks up the key's index access path when one
// exists). End is the same trick with the order reversed. The absolute row
// position shown in the status line comes from a COUNT(*) over the window's
// predicate, one aggregate row per refresh. When the predicate is the key's
// range (or absent) the engine answers it without reading a row: from the
// index's subtree entry counts (or the heap's version count), corrected by
// the table's short list of versions not every snapshot sees — O(log n), so
// "row N of M" costs no more at row 200 000 than at row 1.
//
// Forms with no key (and hence no total order) fall back to materialising the
// result set per refresh — their declared ORDER BY still applies, there is
// just no keyset to page by — which is exactly the pre-pager behaviour and
// fine at the sizes such forms are used at.

// pageFactor is how many visible pages of rows one buffer page holds: the
// lookahead that makes row-at-a-time scrolling amortise to one fetch per
// pageFactor-1 visible pages.
const pageFactor = 3

// pagerKey is one column of the pager's total order.
type pagerKey struct {
	column string // column name as rendered into the query
	pos    int    // column position in the relation's schema
	desc   bool
}

// Pager is the window cursor: a keyset-paging view of one query's result.
// Rows are addressed by absolute position in the ordered result; the pager
// keeps the positions around the last sought one buffered and fetches pages
// as the caller seeks out of the buffer.
type Pager struct {
	prepare func(string) (Statement, error)
	stats   *Stats

	// Query configuration (Configure).
	relation string
	where    []string
	binds    map[string]types.Value
	keys     []pagerKey
	// keyset reports whether keys form a total order (they end in the
	// form's key columns): only then can the pager page by keyset. Without
	// it the keys still render as ORDER BY, but the result materialises.
	keyset   bool
	pageSize int

	// buf holds rows [bufStart, bufStart+len(buf)) of the result.
	buf      []types.Tuple
	bufStart int
	// total is the result-set size as of the last Refresh (-1 before one).
	total  int
	loaded bool
}

// newPager creates a pager that prepares its statements through prepare —
// the window's prepared-statement cache, so every shape the pager uses
// (first/last page, keyset forward/backward, count) is compiled once — and
// counts its traffic into stats.
func newPager(prepare func(string) (Statement, error), stats *Stats) *Pager {
	return &Pager{prepare: prepare, stats: stats, total: -1}
}

// configure sets the pager's query: the relation, the WHERE conjuncts (as
// parameter templates) with their bindings, the ordering keys, whether those
// keys are a total order (keyset paging; otherwise the keys only order a
// materialised result), and the buffer page size. It reports whether the
// configuration changed — in which case buffered rows and positions are
// meaningless and the caller must Refresh from the top.
func (p *Pager) configure(relation string, where []string, binds map[string]types.Value, keys []pagerKey, keyset bool, pageSize int) bool {
	if pageSize < 1 {
		pageSize = 1
	}
	changed := !p.loaded || relation != p.relation || pageSize != p.pageSize || keyset != p.keyset ||
		!slices.Equal(where, p.where) || !slices.Equal(keys, p.keys) || !equalBinds(binds, p.binds)
	p.relation, p.where, p.binds, p.keys, p.keyset, p.pageSize = relation, where, binds, keys, keyset, pageSize
	if changed {
		p.buf, p.bufStart, p.total, p.loaded = nil, 0, -1, false
	}
	return changed
}

func equalBinds(a, b map[string]types.Value) bool {
	return maps.EqualFunc(a, b, types.Value.Equal)
}

// row returns the row at absolute position abs, if it is buffered.
func (p *Pager) row(abs int) (types.Tuple, bool) {
	if abs < p.bufStart || abs >= p.bufStart+len(p.buf) {
		return nil, false
	}
	return p.buf[abs-p.bufStart], true
}

// clear empties the pager (a detail window whose master has no current row).
func (p *Pager) clear() {
	p.buf, p.bufStart, p.total, p.loaded = nil, 0, 0, true
}

// refresh re-runs the window's query: it re-counts the result and reloads one
// buffer page. With a non-nil anchor (the row the cursor sat on, at absolute
// position anchorAbs) the page is re-fetched *around the anchor* by keyset —
// half a page at and before it, the rest after — so refreshing a window deep
// in a huge table costs one page, not a scan back from the top, and the rows
// visible above the cursor stay buffered. Without an anchor (first load, or
// the query changed) the first page loads.
func (p *Pager) refresh(anchor types.Tuple, anchorAbs int) error {
	p.loaded = true
	if !p.keyset {
		// No total order to page by: materialise, as the pre-pager windows
		// did. The keys (the form's declared ORDER BY, if any) still order
		// the result.
		rows, err := p.fetch(p.pageSQL("", false), p.binds, 0)
		if err != nil {
			return err
		}
		p.buf, p.bufStart, p.total = rows, 0, len(rows)
		return nil
	}
	total, err := p.count()
	if err != nil {
		return err
	}
	p.total = total
	if total == 0 {
		p.buf, p.bufStart = nil, 0
		return nil
	}
	if anchor != nil && anchorAbs >= 0 {
		if binds, ok := p.keysetBinds(anchor); ok {
			// Re-anchor around the cursor: half a page strictly before the
			// anchor (reversed keyset, flipped back) so the rows visible
			// above the cursor stay buffered, the rest of the page from the
			// anchor on. Together they cost one page of rows. Position
			// anchorAbs lands on the anchor itself — or, when it was
			// deleted, its successor (the forms convention: deleting the
			// current row moves to the next one).
			back, err := p.fetch(p.pageSQL(p.keysetPredicate(false, true), true), binds, max(p.pageSize/2, 1))
			if err != nil {
				return err
			}
			slices.Reverse(back)
			fwd, err := p.fetch(p.pageSQL(p.keysetPredicate(true, false), false), binds, max(p.pageSize-len(back), 1))
			if err != nil {
				return err
			}
			if len(fwd) > 0 {
				p.buf = append(back, fwd...)
				p.bufStart = clamp(anchorAbs-len(back), 0, total-len(p.buf))
				return nil
			}
			// The anchor fell off the end (rows deleted behind the cursor):
			// land on the last page.
			return p.loadLastPage()
		}
	}
	return p.loadFirstPage()
}

// seek makes the row at absolute position abs available (fetching as needed)
// and returns the position actually reached: abs clamped to the result set,
// or -1 when the result is empty.
func (p *Pager) seek(abs int) (int, error) {
	if !p.loaded {
		return -1, fmt.Errorf("core: pager is not loaded; Refresh first")
	}
	if p.total == 0 {
		return -1, nil
	}
	if p.total > 0 && abs > p.total-1 {
		abs = p.total - 1
	}
	abs = max(abs, 0)
	if _, ok := p.row(abs); ok {
		return abs, nil
	}
	if !p.keyset {
		// Materialised: everything there is is buffered.
		return clamp(abs, 0, p.total-1), nil
	}
	bufEnd := p.bufStart + len(p.buf)
	switch {
	case len(p.buf) == 0:
		if err := p.loadFirstPage(); err != nil {
			return -1, err
		}
		return p.seek(abs)
	case abs >= bufEnd:
		// Jumping straight to the far end is cheaper backwards.
		if p.total >= 0 && abs == p.total-1 && abs-bufEnd >= p.pageSize {
			if err := p.loadLastPage(); err != nil {
				return -1, err
			}
			return p.clampToBuffer(abs), nil
		}
		return p.extendForward(abs)
	default: // abs < p.bufStart
		if abs == 0 && p.bufStart >= p.pageSize {
			if err := p.loadFirstPage(); err != nil {
				return -1, err
			}
			return p.clampToBuffer(abs), nil
		}
		return p.extendBackward(abs)
	}
}

// seekLast positions on the last row of the result — fetched as one reversed
// page, so End on a huge table costs O(page) — and returns its position (-1
// when the result is empty).
func (p *Pager) seekLast() (int, error) {
	if !p.loaded {
		return -1, fmt.Errorf("core: pager is not loaded; Refresh first")
	}
	if p.total == 0 {
		return -1, nil
	}
	if !p.keyset {
		return p.total - 1, nil
	}
	if _, ok := p.row(p.total - 1); ok {
		// The last row is already buffered (End pressed twice, or the
		// cursor is on the last page): nothing to fetch.
		return p.total - 1, nil
	}
	if err := p.loadLastPage(); err != nil {
		return -1, err
	}
	if len(p.buf) == 0 {
		return -1, nil
	}
	return p.bufStart + len(p.buf) - 1, nil
}

// clampToBuffer pulls an absolute position into the buffered range.
func (p *Pager) clampToBuffer(abs int) int {
	if len(p.buf) == 0 {
		return -1
	}
	return clamp(abs, p.bufStart, p.bufStart+len(p.buf)-1)
}

// loadFirstPage fetches the first buffer page in forward order.
func (p *Pager) loadFirstPage() error {
	rows, err := p.fetch(p.pageSQL("", false), p.binds, p.pageSize)
	if err != nil {
		return err
	}
	p.buf, p.bufStart = rows, 0
	if len(rows) < p.pageSize && p.total > len(rows) {
		// The stream dried up before the count said it would (rows deleted
		// since): trust what was actually fetched.
		p.total = len(rows)
	}
	return nil
}

// loadLastPage fetches the last buffer page: the query runs in reverse order
// (every key direction flipped), the page is reversed back in memory.
func (p *Pager) loadLastPage() error {
	rows, err := p.fetch(p.pageSQL("", true), p.binds, p.pageSize)
	if err != nil {
		return err
	}
	slices.Reverse(rows)
	p.buf = rows
	p.bufStart = max(p.total-len(rows), 0)
	return nil
}

// extendForward grows the buffer to cover target (> buffered end): it fetches
// the rows after the last buffered one by keyset — at least a page, more when
// the caller jumped further — then trims the front of the ring.
func (p *Pager) extendForward(target int) (int, error) {
	anchor := p.buf[len(p.buf)-1]
	binds, ok := p.keysetBinds(anchor)
	if !ok {
		// A NULL in the anchor's keys makes the keyset comparison undefined;
		// rebuild the window from the top instead of paging wrongly.
		return p.reloadThrough(target)
	}
	need := target - (p.bufStart + len(p.buf)) + 1
	rows, err := p.fetch(p.pageSQL(p.keysetPredicate(false, false), false), binds, max(need, p.pageSize))
	if err != nil {
		return -1, err
	}
	p.buf = append(p.buf, rows...)
	if len(rows) < need {
		// The result ended early: the table shrank since the last count.
		p.total = p.bufStart + len(p.buf)
		target = p.total - 1
	}
	p.trimFront(target)
	return p.clampToBuffer(target), nil
}

// extendBackward grows the buffer to cover target (< bufStart): it fetches
// the rows before the first buffered one — the reversed-order query with the
// complementary keyset predicate — reverses them into place, then trims the
// tail of the ring.
func (p *Pager) extendBackward(target int) (int, error) {
	anchor := p.buf[0]
	binds, ok := p.keysetBinds(anchor)
	if !ok {
		return p.reloadThrough(target)
	}
	need := p.bufStart - target
	rows, err := p.fetch(p.pageSQL(p.keysetPredicate(false, true), true), binds, max(need, p.pageSize))
	if err != nil {
		return -1, err
	}
	slices.Reverse(rows)
	p.buf = append(rows, p.buf...)
	p.bufStart -= len(rows)
	if len(rows) < need || p.bufStart < 0 {
		// Fewer predecessors than the bookkeeping claimed (rows deleted):
		// what we just hit is the true start of the result.
		p.bufStart = 0
	}
	p.trimBack(target)
	return p.clampToBuffer(target), nil
}

// reloadThrough is the slow fallback when keyset anchoring is impossible
// (NULL key values): refetch from the top, far enough to cover target.
func (p *Pager) reloadThrough(target int) (int, error) {
	rows, err := p.fetch(p.pageSQL("", false), p.binds, target+p.pageSize)
	if err != nil {
		return -1, err
	}
	p.buf, p.bufStart = rows, 0
	if len(rows) <= target {
		p.total = len(rows)
	}
	p.trimFront(target)
	return p.clampToBuffer(target), nil
}

// maxBuffered is the ring bound: trimming leaves at most this many rows.
func (p *Pager) maxBuffered() int { return 2 * p.pageSize }

// trimFront drops rows from the front of the ring, never past keep.
func (p *Pager) trimFront(keep int) {
	drop := len(p.buf) - p.maxBuffered()
	if maxDrop := keep - p.bufStart; drop > maxDrop {
		drop = maxDrop
	}
	if drop > 0 {
		p.buf = p.buf[drop:]
		p.bufStart += drop
	}
}

// trimBack drops rows from the back of the ring, never past keep.
func (p *Pager) trimBack(keep int) {
	drop := len(p.buf) - p.maxBuffered()
	if maxDrop := p.bufStart + len(p.buf) - 1 - keep; drop > maxDrop {
		drop = maxDrop
	}
	if drop > 0 {
		p.buf = p.buf[:len(p.buf)-drop]
	}
}

// --- query building ----------------------------------------------------------

// pageSQL renders the page query: the configured predicates plus an optional
// keyset predicate, ordered by the pager's keys (reversed when fetching
// backwards). The text is stable for a given shape, so it hits the window's
// statement cache and the engine's plan cache.
func (p *Pager) pageSQL(keysetPred string, reversed bool) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(p.relation)
	preds := p.where
	if keysetPred != "" {
		preds = append(append([]string{}, p.where...), keysetPred)
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	if len(p.keys) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range p.keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.column)
			if k.desc != reversed {
				b.WriteString(" DESC")
			}
		}
	}
	return b.String()
}

// countSQL renders the COUNT(*) query over the configured predicates.
func (p *Pager) countSQL() string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	b.WriteString(p.relation)
	if len(p.where) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(p.where, " AND "))
	}
	return b.String()
}

// keysetPredicate renders "strictly after the anchor row" in the pager's
// order (reversed flips the direction for backward fetches) as a row-value
// comparison expanded into the dialect:
//
//	(k1 > @ks_0) OR (k1 = @ks_0 AND k2 > @ks_1) OR ...
//
// inclusive admits the anchor row itself by relaxing the comparison on the
// last key column to >= (<=) — for a one-column key the whole predicate is
// (k1 >= @ks_0), a plain range bound the planner turns into an index seek,
// where an added "OR k1 = @ks_0" clause would hide it from the access path.
//
// The anchor values bind as the @ks_i parameters (keysetBinds), so every
// re-position reuses one prepared statement per direction.
func (p *Pager) keysetPredicate(inclusive, reversed bool) string {
	var clauses []string
	for i, k := range p.keys {
		var parts []string
		for j := 0; j < i; j++ {
			parts = append(parts, fmt.Sprintf("%s = @ks_%d", p.keys[j].column, j))
		}
		op := ">"
		if k.desc != reversed {
			op = "<"
		}
		if inclusive && i == len(p.keys)-1 {
			op += "="
		}
		parts = append(parts, fmt.Sprintf("%s %s @ks_%d", k.column, op, i))
		clauses = append(clauses, "("+strings.Join(parts, " AND ")+")")
	}
	return "(" + strings.Join(clauses, " OR ") + ")"
}

// keysetBinds merges the anchor row's key values (as @ks_i) into the base
// bindings. ok is false when a key value is NULL — keyset comparison would be
// undefined, the caller must fall back.
func (p *Pager) keysetBinds(anchor types.Tuple) (map[string]types.Value, bool) {
	out := make(map[string]types.Value, len(p.binds)+len(p.keys))
	for name, v := range p.binds {
		out[name] = v
	}
	for i, k := range p.keys {
		if k.pos < 0 || k.pos >= len(anchor) {
			return nil, false
		}
		v := anchor[k.pos]
		if v.IsNull() {
			return nil, false
		}
		out[fmt.Sprintf("ks_%d", i)] = v
	}
	return out, true
}

// --- fetch plumbing ----------------------------------------------------------

// fetch runs one page query through the prepared-statement cache and pulls at
// most limit rows off its cursor (0 = all), closing it early once the page is
// full — locally that releases the cursor's read lease, remotely it closes
// the server-side cursor. On a remote statement the fetch size is pinned to
// the page, so a page is one wire round trip.
func (p *Pager) fetch(text string, binds map[string]types.Value, limit int) ([]types.Tuple, error) {
	st, err := p.prepare(text)
	if err != nil {
		return nil, err
	}
	for name, v := range binds {
		if err := st.BindNamed(name, v); err != nil {
			return nil, err
		}
	}
	if fs, ok := st.(fetchSizer); ok {
		fs.SetFetchSize(limit)
	}
	rows, err := st.Query()
	if err != nil {
		return nil, err
	}
	var out []types.Tuple
	for (limit <= 0 || len(out) < limit) && rows.Next() {
		out = append(out, rows.Row())
	}
	fetchErr := rows.Err()
	closeErr := rows.Close()
	p.stats.Queries++
	p.stats.RowsFetched += uint64(len(out))
	if fetchErr != nil {
		return nil, fetchErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return out, nil
}

// count runs the COUNT(*) query and returns the result-set size.
func (p *Pager) count() (int, error) {
	rows, err := p.fetch(p.countSQL(), p.binds, 1)
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("core: count query returned no count")
	}
	v, err := rows[0][0].Cast(types.KindInt)
	if err != nil {
		return 0, fmt.Errorf("core: count query: %w", err)
	}
	return int(v.Int()), nil
}

func clamp(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	return min(max(v, lo), hi)
}
