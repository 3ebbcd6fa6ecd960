package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/tui"
)

// browse.remote: forms users paging through a relation larger than the
// buffer pool, over the wire.

const (
	bPgDn = iota
	bPgUp
	bJump
	bHome
	bEnd
	bQuery
	bRefresh
	bSave
)

// browseClients is how many windows browse at once. Client i owns the ids
// congruent to i, so the windows never update the same row.
const browseClients = 2

var browseKinds = []string{"pgdn", "pgup", "jump", "home", "end", "query", "refresh", "save"}

// step is one entry of the browse script: the kind of operation and, for a
// jump, its direction (+1 down, -1 up).
type step struct {
	kind int
	dir  int
}

// browseCycle is the script every window repeats: one session of filtering
// to a depth, paging and jumping there, saving, refreshing, going to the end
// and coming back. Its order is fixed because what an operation costs
// depends on where the cursor stands (a refresh deep in the result reads up
// to the cursor), so a shuffled order would make two seeds do different
// amounts of work. The seed draws the depths, the jump lengths and the
// saved values. Jumps cross at least two buffer pages, so more than half of
// the operations need a page from the server; 2 of 40 (5 %) save.
var browseCycle = []step{
	{kind: bQuery}, // filter from a seeded depth
	{kind: bPgDn}, {kind: bPgDn}, {kind: bPgDn}, {kind: bPgDn},
	{bJump, +1}, {bJump, +1}, {bJump, +1},
	{kind: bSave},
	{kind: bRefresh},
	{kind: bPgDn}, {kind: bPgDn}, {kind: bPgUp},
	{bJump, +1}, {bJump, -1}, {bJump, +1},
	{kind: bEnd},
	{kind: bPgUp}, {kind: bPgUp},
	{bJump, -1}, {bJump, -1}, {bJump, -1},
	{kind: bPgDn},
	{kind: bRefresh}, // deep in the result: the costly one
	{kind: bHome},
	{kind: bQuery}, // clear the filter
	{kind: bPgDn}, {kind: bPgDn}, {kind: bPgDn}, {kind: bPgDn},
	{bJump, +1}, {bJump, +1}, {bJump, -1},
	{kind: bSave},
	{kind: bPgUp},
	{kind: bEnd},
	{bJump, -1},
	{kind: bPgUp},
	{bJump, -1},
	{kind: bHome},
}

// filterStrata is how many equal bands of the table the filter depths are
// drawn from in turn, so that a run's filters cover the table evenly.
const filterStrata = 4

type browse struct {
	env  env
	host *host
	form *core.Form

	// edits[i] holds the quantities client i saved, by id. It outlives the
	// client so that a later phase's client i still knows what its rows hold.
	edits [browseClients]map[int]int

	// saving admits one Save at a time. At the commit this benchmark was
	// written against, two transactions that vacuum one table at the same
	// time can delete a live row (both collect the same dead record id; the
	// second removes it after an insert has reused the slot), and a Save
	// vacuums on its way out. Waiting for the token is not timed.
	saving sync.Mutex

	// shapes collects the statements the traced run's one client issued.
	shapes map[string]*shape
}

func newBrowse(e env) *browse {
	b := &browse{env: e, shapes: map[string]*shape{}}
	for i := range b.edits {
		b.edits[i] = map[int]int{}
	}
	return b
}

func (b *browse) kinds() []string { return browseKinds }

func (b *browse) setup() error {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		return err
	}
	if err := createSchema(db); err != nil {
		return err
	}
	s := db.Session()
	if _, err := load(s, insertItemSQL, 1, b.env.sz.browseRows, 500, itemTuple); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	forms, err := core.NewCompiler(db).CompileSource(standardForms)
	if err != nil {
		return err
	}
	for _, f := range forms {
		if f.Def.Name == "item_form" {
			b.form = f
		}
	}
	if b.form == nil {
		return fmt.Errorf("browse: the standard forms have no item_form")
	}
	b.host, err = serve(db, nil)
	return err
}

func (b *browse) counters(c *counters) {
	c.addEngine(b.host.db)
	c.addServer(b.host.srv)
}

// verify has nothing left to check: every keystroke was checked when made.
func (b *browse) verify() error { return nil }

func (b *browse) close() error { return b.host.close() }

type browseClient struct {
	b      *browse
	id     int
	conn   *client.Conn
	mgr    *core.Manager
	win    *core.Window
	rng    *rand.Rand
	tr     *tracer
	pos    int  // position in browseCycle
	cycles int  // cycles completed, which picks the filter's band
	filter bool // the next query op filters (true) or clears the filter
	// base is how many rows the query-by-form filter hides below the window:
	// ids are dense, so the row at cursor n must be id base+n+1.
	base   int
	cursor int
	edits  map[int]int // id -> the qty this client saved
}

func (b *browse) worker(i int, tr *tracer) (worker, error) {
	conn, err := client.Dial(b.host.addr)
	if err != nil {
		return nil, err
	}
	var src core.Source = core.NewRemoteSource(conn)
	if tr != nil {
		src = &tracedSource{inner: src, tr: tr, shapes: b.shapes}
	}
	mgr := core.NewManager(b.host.db, 100, 30)
	win, err := mgr.OpenOn(b.form, src, 0, 0)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &browseClient{
		b: b, id: i, conn: conn, mgr: mgr, win: win, tr: tr,
		rng:    rand.New(rand.NewSource(b.env.seed*1000 + int64(i))),
		filter: true,
		edits:  b.edits[i],
	}, nil
}

func (c *browseClient) counters(cs *counters) { cs.addWindow(c.win) }

func (c *browseClient) close() {
	c.mgr.Close(c.win)
	c.conn.Close()
}

func (c *browseClient) total() int { return c.b.env.sz.browseRows - c.base }

// key sends one keystroke to the window as a traced call.
func (c *browseClient) key(k tui.Key) error {
	c.tr.begin("Window.HandleKey")
	err := c.win.HandleKey(tui.KeyEvent(k))
	c.tr.end()
	return err
}

func (c *browseClient) typeText(text string) error {
	for _, ev := range tui.TypeString(text) {
		if err := c.win.HandleKey(ev); err != nil {
			return err
		}
	}
	return nil
}

func (c *browseClient) op() (int, time.Duration, error) {
	st := browseCycle[c.pos]
	kind := st.kind
	if c.pos++; c.pos == len(browseCycle) {
		c.pos = 0
		c.cycles++
	}

	page := c.win.PageSize()
	last := c.total() - 1
	// A page or a jump with no room in its direction turns around, so that
	// every operation moves the cursor.
	switch {
	case kind == bPgDn && c.cursor+page > last:
		kind = bPgUp
	case kind == bPgUp && c.cursor-page < 0:
		kind = bPgDn
	}
	var jump, filterFrom int
	switch kind {
	case bJump:
		jump = st.dir * page * (3 + c.rng.Intn(6))
		if c.cursor+jump > last || c.cursor+jump < 0 {
			jump = -jump
		}
	case bQuery:
		if c.filter {
			// A depth in the first half of the table, from the bands in turn.
			band := c.b.env.sz.browseRows / 2 / filterStrata
			filterFrom = 2 + (c.cycles%filterStrata)*band + c.rng.Intn(band)
		}
	}

	if kind == bSave {
		c.b.saving.Lock()
		defer c.b.saving.Unlock()
	}
	c.tr.nextOp()
	c.tr.begin("op:" + browseKinds[kind])
	start := time.Now()
	var err error
	want := c.cursor
	switch kind {
	case bPgDn:
		err = c.key(tui.KeyPgDn)
		want = min(c.cursor+page, last)
	case bPgUp:
		err = c.key(tui.KeyPgUp)
		want = max(c.cursor-page, 0)
	case bJump:
		c.tr.begin("Window.MoveCursor")
		err = c.win.MoveCursor(jump)
		c.tr.end()
		want = c.cursor + jump
	case bHome:
		err = c.key(tui.KeyHome)
		want = 0
	case bEnd:
		err = c.key(tui.KeyEnd)
		want = last
	case bQuery:
		if err = c.key(tui.KeyF2); err == nil && c.filter {
			err = c.typeText(">=" + strconv.Itoa(filterFrom))
		}
		if err == nil {
			err = c.key(tui.KeyF4)
		}
		if c.filter {
			c.base = filterFrom - 1
		} else {
			c.base = 0
		}
		c.filter = !c.filter
		want = 0
	case bRefresh:
		c.tr.begin("Window.Refresh")
		err = c.win.Refresh()
		c.tr.end()
	case bSave:
		// Clients own the ids congruent to their number, so two windows
		// never update one row: step to the neighbouring row when needed.
		if id := c.base + c.cursor + 1; id%browseClients != c.id {
			if c.cursor < last {
				err = c.key(tui.KeyDown)
				want = c.cursor + 1
			} else {
				err = c.key(tui.KeyUp)
				want = c.cursor - 1
			}
		}
		id := c.base + want + 1
		newQty := c.qty(id)%99 + 1 // always differs from the current qty
		if err == nil {
			err = c.win.SetFieldText("qty", strconv.Itoa(newQty))
		}
		if err == nil {
			err = c.key(tui.KeyF6)
		}
		if err == nil && (c.win.Mode() != core.ModeBrowse || !strings.Contains(c.win.Status(), "saved")) {
			err = fmt.Errorf("save of id %d was refused: %s", id, c.win.Status())
		}
		if err == nil {
			c.edits[id] = newQty
		}
	}
	if c.tr != nil && err == nil {
		// An extra repaint in the traced run prices Render on its own.
		c.tr.begin("Window.Render")
		c.win.Render()
		c.tr.end()
	}
	d := time.Since(start)
	c.tr.end()
	c.cursor = want
	if err == nil {
		err = c.check()
	}
	return kind, d, err
}

// qty is the quantity the row must show: this client's last save, or the
// generated value. (Rows the other client owns are checked by id only.)
func (c *browseClient) qty(id int) int {
	if q, ok := c.edits[id]; ok {
		return q
	}
	return itemQty(id)
}

// check is the per-keystroke oracle: cursor position, the row under it and
// "row N of M" must all be what the script implies.
func (c *browseClient) check() error {
	return checkWindow(c.win, c.cursor, c.base, c.total(), func(id int) (int, bool) {
		return c.qty(id), id%browseClients == c.id
	})
}

// checkWindow compares the window with the expectation: cursor at position
// cursor, showing id base+cursor+1 of total rows, with the given qty when the
// caller knows it.
func checkWindow(w *core.Window, cursor, base, total int, qty func(id int) (int, bool)) error {
	if got := w.Cursor(); got != cursor {
		return fmt.Errorf("cursor at %d, want %d", got, cursor)
	}
	if got := w.RowCount(); got != total {
		return fmt.Errorf("window reports %d rows, want %d", got, total)
	}
	row, ok := w.CurrentRow()
	if !ok {
		return fmt.Errorf("no row under the cursor at %d", cursor)
	}
	id := base + cursor + 1
	if got := int(row[0].Int()); got != id {
		return fmt.Errorf("row at position %d has id %d, want %d", cursor, got, id)
	}
	if q, known := qty(id); known && int(row[3].Int()) != q {
		return fmt.Errorf("id %d shows qty %d, want %d", id, row[3].Int(), q)
	}
	return nil
}

// plan replays the statements the forms runtime generated — the ones that
// took the most traced time, the forward keyset page first — over the wire,
// in process and as bare operators. Time in an operation outside its
// statements is the forms runtime's own.
func (b *browse) plan() (*layerPlan, error) {
	shapes := make([]*shape, 0, len(b.shapes))
	for _, sh := range b.shapes {
		shapes = append(shapes, sh)
	}
	// The main statement is the page after the cursor: what PgDn and a
	// forward jump fetch.
	rank := func(sh *shape) int {
		switch {
		case strings.HasSuffix(sh.sql, "WHERE ((id > @ks_0)) ORDER BY id"):
			return 0
		case sh.write:
			return 2
		}
		return 1
	}
	sort.Slice(shapes, func(i, j int) bool {
		if ri, rj := rank(shapes[i]), rank(shapes[j]); ri != rj {
			return ri < rj
		}
		return shapes[i].sql < shapes[j].sql
	})
	p := &layerPlan{rest: lyCore, reconcileKind: bJump,
		probeDB: b.host.db, probeTable: "order_items", probeMaxID: b.env.sz.browseRows}
	for _, sh := range shapes {
		p.items = append(p.items, &ladderItem{sh: sh, span: "stmt:" + sh.sql, top: -1, remote: b.host.addr, local: b.host.db})
	}
	return p, nil
}
