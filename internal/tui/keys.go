package tui

import (
	"fmt"
	"strings"
)

// Key identifies a non-character key, or KeyRune for printable input.
type Key int

// Keys the forms runtime responds to.
const (
	KeyRune Key = iota
	KeyEnter
	KeyTab
	KeyBackTab
	KeyEsc
	KeyBackspace
	KeyDelete
	KeyUp
	KeyDown
	KeyLeft
	KeyRight
	KeyPgUp
	KeyPgDn
	KeyHome
	KeyEnd
	// Function keys carry the classic forms-system bindings:
	// F1 help, F2 query mode, F3 clear field, F4 execute query, F5 insert,
	// F6 save/commit, F7 delete row, F8 next window, F9 previous window,
	// F10 quit/close window.
	KeyF1
	KeyF2
	KeyF3
	KeyF4
	KeyF5
	KeyF6
	KeyF7
	KeyF8
	KeyF9
	KeyF10
)

var keyNames = map[Key]string{
	KeyRune: "RUNE", KeyEnter: "ENTER", KeyTab: "TAB", KeyBackTab: "BACKTAB",
	KeyEsc: "ESC", KeyBackspace: "BACKSPACE", KeyDelete: "DELETE",
	KeyUp: "UP", KeyDown: "DOWN", KeyLeft: "LEFT", KeyRight: "RIGHT",
	KeyPgUp: "PGUP", KeyPgDn: "PGDN", KeyHome: "HOME", KeyEnd: "END",
	KeyF1: "F1", KeyF2: "F2", KeyF3: "F3", KeyF4: "F4", KeyF5: "F5",
	KeyF6: "F6", KeyF7: "F7", KeyF8: "F8", KeyF9: "F9", KeyF10: "F10",
}

// String returns the key's script name (the form "<ENTER>" uses in scripts).
func (k Key) String() string {
	if name, ok := keyNames[k]; ok {
		return name
	}
	return fmt.Sprintf("Key(%d)", int(k))
}

// Event is one keystroke.
type Event struct {
	Key  Key
	Rune rune // valid when Key == KeyRune
}

// String renders the event in script notation.
func (e Event) String() string {
	if e.Key == KeyRune {
		return string(e.Rune)
	}
	return "<" + e.Key.String() + ">"
}

// Rune returns a printable-character event.
func runeEvent(r rune) Event { return Event{Key: KeyRune, Rune: r} }

// KeyEvent returns a special-key event.
func KeyEvent(k Key) Event { return Event{Key: k} }

// TypeString converts a string into the events produced by typing it.
func TypeString(s string) []Event {
	out := make([]Event, 0, len(s))
	for _, r := range s {
		out = append(out, runeEvent(r))
	}
	return out
}

// ParseScript parses keystroke-script notation into events. Plain characters
// are typed as themselves; special keys are written in angle brackets, e.g.
//
//	"Amalgamated<TAB>Boston<ENTER><F6>"
//
// An unknown key name is an error. "<<" produces a literal '<'.
func ParseScript(script string) ([]Event, error) {
	var out []Event
	i := 0
	for i < len(script) {
		c := script[i]
		if c != '<' {
			out = append(out, runeEvent(rune(c)))
			i++
			continue
		}
		if i+1 < len(script) && script[i+1] == '<' {
			out = append(out, runeEvent('<'))
			i += 2
			continue
		}
		end := strings.IndexByte(script[i:], '>')
		if end < 0 {
			return nil, fmt.Errorf("tui: unterminated key name at offset %d", i)
		}
		name := strings.ToUpper(script[i+1 : i+end])
		found := false
		for key, keyName := range keyNames {
			if keyName == name && key != KeyRune {
				out = append(out, KeyEvent(key))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("tui: unknown key <%s>", name)
		}
		i += end + 1
	}
	return out, nil
}
