package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/engine"
	"repro/internal/tui"
)

// Manager is the window manager: it keeps any number of windows open over one
// database, routes keystrokes to the focused window, composites every
// window's screen onto one terminal-sized surface, and — the property the
// paper's title promises — propagates refreshes so that after any window
// commits a change, every other window looking at the same part of the world
// is brought up to date.
type Manager struct {
	db      *engine.Database
	screen  *tui.Screen
	windows []*Window
	focus   int
	nextID  int

	// stats
	propagations     uint64
	windowsRefreshed uint64
}

// NewManager creates a window manager compositing onto a screen of the given
// size (the classic 80x24 terminal by default).
func NewManager(db *engine.Database, width, height int) *Manager {
	if width <= 0 {
		width = 80
	}
	if height <= 0 {
		height = 24
	}
	return &Manager{db: db, screen: tui.NewScreen(width, height)}
}

// Screen returns the composite screen.
func (m *Manager) Screen() *tui.Screen { return m.screen }

// PropagationCount reports how many write notifications the manager has
// processed.
func (m *Manager) PropagationCount() uint64 { return m.propagations }

// WindowsRefreshed reports how many window refreshes propagation caused.
func (m *Manager) WindowsRefreshed() uint64 { return m.windowsRefreshed }

// Open opens a window for the form at the given origin on the composite
// screen, gives it its own session on the manager's database (closed when
// the window closes), runs its initial query and focuses it.
func (m *Manager) Open(form *Form, originRow, originCol int) (*Window, error) {
	src := engineSource{session: m.db.Session()}
	return m.open(form, src, src, originRow, originCol)
}

// OpenOn opens a window over an explicit row source — a remote wowserver
// connection (NewRemoteSource), or any other Source implementation — so the
// same forms runtime browses local and remote worlds. The form must be
// compiled against a catalog matching the source's schema. The source stays
// the caller's: closing the window closes only what the window opened.
func (m *Manager) OpenOn(form *Form, src Source, originRow, originCol int) (*Window, error) {
	return m.open(form, src, nil, originRow, originCol)
}

// open opens a window over src; own, when not nil, is what was opened for
// the window and closes with it.
func (m *Manager) open(form *Form, src Source, own io.Closer, originRow, originCol int) (*Window, error) {
	m.nextID++
	w := newWindow(form, src, m, m.nextID)
	w.own = own
	w.OriginRow, w.OriginCol = originRow, originCol
	if err := w.Refresh(); err != nil {
		w.release()
		return nil, err
	}
	m.windows = append(m.windows, w)
	m.focus = len(m.windows) - 1
	m.composite()
	return w, nil
}

// Close removes a window and releases its statements and what was opened
// for it and its detail windows.
func (m *Manager) Close(w *Window) {
	for i, other := range m.windows {
		if other == w {
			m.windows = append(m.windows[:i], m.windows[i+1:]...)
			w.closed = true
			w.release()
			break
		}
	}
	if m.focus >= len(m.windows) {
		m.focus = len(m.windows) - 1
	}
	m.composite()
}

// focused returns the window that receives keystrokes, or nil when none are
// open.
func (m *Manager) focused() *Window {
	if m.focus < 0 || m.focus >= len(m.windows) {
		return nil
	}
	return m.windows[m.focus]
}

// focusNext cycles focus to the next window.
func (m *Manager) focusNext() {
	if len(m.windows) == 0 {
		return
	}
	m.focus = (m.focus + 1) % len(m.windows)
	m.composite()
}

// focusPrev cycles focus to the previous window.
func (m *Manager) focusPrev() {
	if len(m.windows) == 0 {
		return
	}
	m.focus = (m.focus - 1 + len(m.windows)) % len(m.windows)
	m.composite()
}

// Focus makes the given window current.
func (m *Manager) Focus(w *Window) {
	for i, other := range m.windows {
		if other == w {
			m.focus = i
			m.composite()
			return
		}
	}
}

// handleKey routes one keystroke: F8/F9 switch windows, F10 closes the
// focused window, everything else goes to the focused window.
func (m *Manager) handleKey(ev tui.Event) error {
	switch ev.Key {
	case tui.KeyF8:
		m.focusNext()
		return nil
	case tui.KeyF9:
		m.focusPrev()
		return nil
	case tui.KeyF10:
		if focused := m.focused(); focused != nil {
			m.Close(focused)
		}
		return nil
	}
	focused := m.focused()
	if focused == nil {
		return fmt.Errorf("core: no window is open")
	}
	err := focused.HandleKey(ev)
	m.composite()
	return err
}

// HandleScript replays a keystroke script through the manager.
func (m *Manager) HandleScript(script string) error {
	events, err := tui.ParseScript(script)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := m.handleKey(ev); err != nil {
			return err
		}
	}
	return nil
}

// propagateChange refreshes every open window (other than the writer) that
// reads the written table — through its own relation or a detail window
// embedded in it. This is what keeps several windows over the same data
// consistent.
func (m *Manager) propagateChange(table string, writer *Window) {
	m.propagations++
	for _, w := range m.windows {
		if w == writer || w.closed {
			continue
		}
		if m.refreshIfDependent(w, table) {
			m.windowsRefreshed++
		}
	}
	m.composite()
}

// refreshIfDependent refreshes w (and its details) when it depends on the
// table; it reports whether a refresh happened.
func (m *Manager) refreshIfDependent(w *Window, table string) bool {
	dependent := w.form.dependsOn(table)
	for _, link := range w.form.Details {
		if link.Child.dependsOn(table) {
			dependent = true
		}
	}
	if !dependent {
		return false
	}
	// Ignore the error here: a failed refresh leaves the window's previous
	// contents and its own status line explains the problem.
	_ = w.Refresh()
	return true
}

// composite redraws every window onto the manager's screen in z-order, the
// focused window last (on top), each at its origin, and a workspace status
// line at the very bottom.
func (m *Manager) composite() {
	m.screen.Clear()
	order := make([]*Window, 0, len(m.windows))
	for i, w := range m.windows {
		if i != m.focus {
			order = append(order, w)
		}
	}
	if f := m.focused(); f != nil {
		order = append(order, f)
	}
	for _, w := range order {
		m.blit(w)
	}
	names := make([]string, 0, len(m.windows))
	for i, w := range m.windows {
		name := w.form.Def.Name
		if i == m.focus {
			name = "[" + name + "]"
		}
		names = append(names, name)
	}
	status := fmt.Sprintf(" windows: %s   F8 next window  F10 close", strings.Join(names, " "))
	m.screen.DrawText(m.screen.Height()-1, 0, status, tui.StyleDim)
}

// blit copies a window's screen onto the composite surface at its origin.
func (m *Manager) blit(w *Window) {
	src := w.Screen()
	for r := 0; r < src.Height(); r++ {
		for c := 0; c < src.Width(); c++ {
			cell := src.CellAt(r, c)
			m.screen.SetCell(w.OriginRow+r, w.OriginCol+c, cell.Ch, cell.Style)
		}
	}
}
