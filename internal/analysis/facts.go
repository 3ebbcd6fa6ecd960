package analysis

import (
	"encoding/json"
	"fmt"
	"os"
)

// FactStore holds JSON-encoded package facts keyed by analyzer name and
// package path. The standalone driver keeps one in memory for the whole run;
// the unit driver deserializes the dependencies' stores from .vetx files and
// serializes the union back out, so facts flow along the build graph exactly
// like x/tools analysis facts do under `go vet`.
type FactStore struct {
	// m maps analyzer name -> package path -> encoded fact.
	m map[string]map[string]json.RawMessage
}

// newFactStore returns an empty store.
func newFactStore() *FactStore {
	return &FactStore{m: make(map[string]map[string]json.RawMessage)}
}

func (s *FactStore) set(analyzer, pkgPath string, fact any) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: encoding %s fact for %s: %w", analyzer, pkgPath, err)
	}
	byPkg := s.m[analyzer]
	if byPkg == nil {
		byPkg = make(map[string]json.RawMessage)
		s.m[analyzer] = byPkg
	}
	byPkg[pkgPath] = data
	return nil
}

func (s *FactStore) get(analyzer, pkgPath string, out any) bool {
	data, ok := s.m[analyzer][pkgPath]
	if !ok {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

// encode serializes the store.
func (s *FactStore) encode() ([]byte, error) { return json.Marshal(s.m) }

// mergeFile reads a serialized store and merges its facts in. Missing files
// are ignored (a dependency analyzed before this tool existed has no facts).
func (s *FactStore) mergeFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if len(data) == 0 {
		return nil
	}
	var m map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("analysis: corrupt fact file %s: %w", path, err)
	}
	for analyzer, byPkg := range m {
		for pkgPath, fact := range byPkg {
			if s.m[analyzer] == nil {
				s.m[analyzer] = make(map[string]json.RawMessage)
			}
			s.m[analyzer][pkgPath] = fact
		}
	}
	return nil
}
