// Package catalog maintains the database's metadata: the tables, their
// schemas, their indexes, the view definitions, and the form definitions the
// forms layer registers. It also implements the typed table access layer —
// inserting, updating, deleting and scanning tuples while keeping every index
// and uniqueness constraint consistent.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Catalog is the registry of all persistent objects in one database.
// It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	pool   *storage.BufferPool
	tables map[string]*Table
	views  map[string]*ViewDef
	// version counts schema changes (table/index/view creation and removal).
	// Plan caches compare it to detect that a cached plan may be stale.
	version uint64
	// located counts Table.Locate calls across every table, dropped ones
	// included.
	located locateCounters
}

// New creates an empty catalog whose tables allocate from pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{
		pool:   pool,
		tables: make(map[string]*Table),
		views:  make(map[string]*ViewDef),
	}
}

// LocateStats returns how many Table.Locate calls were served by an index
// seek and how many fell back to scanning an index-less table.
func (c *Catalog) LocateStats() (seeks, scans uint64) {
	return c.located.seeks.Load(), c.located.scans.Load()
}

// Version returns the schema version: a counter that advances on every
// change to the set of tables, indexes or views. A plan built at version v
// is valid for as long as Version() still returns v.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// CreateTable registers a new table with the given schema. A unique index is
// created automatically over the primary-key columns, and over each column
// declared UNIQUE.
func (c *Catalog) CreateTable(name string, schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normalize(name)
	if key == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, ok := c.views[key]; ok {
		return nil, fmt.Errorf("catalog: a view named %q already exists", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("catalog: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, col := range schema.Columns {
		lower := strings.ToLower(col.Name)
		if seen[lower] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lower] = true
	}
	t := newTable(key, schema.WithTable(key), c.pool, &c.located)
	if pk := schema.PrimaryKey(); len(pk) > 0 {
		cols := make([]string, len(pk))
		for i, idx := range pk {
			cols[i] = schema.Columns[idx].Name
		}
		if _, err := t.createIndex(key+"_pkey", cols, true); err != nil {
			return nil, err
		}
	}
	for _, col := range schema.Columns {
		if col.Unique && !col.PrimaryKey {
			if _, err := t.createIndex(key+"_"+strings.ToLower(col.Name)+"_key", []string{col.Name}, true); err != nil {
				return nil, err
			}
		}
	}
	c.tables[key] = t
	c.version++
	return t, nil
}

// GetTable looks a table up by name.
func (c *Catalog) GetTable(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[normalize(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no table named %q", name)
	}
	return t, nil
}

// HasTable reports whether a table with the name exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[normalize(name)]
	return ok
}

// DropTable removes the table and its indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normalize(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: no table named %q", name)
	}
	delete(c.tables, key)
	c.version++
	return nil
}

// TableNames returns the names of all tables, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex adds a secondary index over the named columns of a table and
// backfills it from existing rows.
func (c *Catalog) CreateIndex(indexName, tableName string, columns []string, unique bool) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[normalize(tableName)]
	if !ok {
		return nil, fmt.Errorf("catalog: no table named %q", tableName)
	}
	for _, other := range c.tables {
		if other.indexByName(indexName) != nil {
			return nil, fmt.Errorf("catalog: an index named %q already exists", indexName)
		}
	}
	idx, err := t.createIndex(indexName, columns, unique)
	if err != nil {
		return nil, err
	}
	if err := t.backfillIndex(idx); err != nil {
		t.dropIndex(indexName)
		return nil, err
	}
	c.version++
	return idx, nil
}

// DropIndex removes a secondary index by name from whichever table owns it.
func (c *Catalog) DropIndex(indexName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tables {
		if t.indexByName(indexName) != nil {
			t.dropIndex(indexName)
			c.version++
			return nil
		}
	}
	return fmt.Errorf("catalog: no index named %q", indexName)
}

// ViewDef records a named view: its SQL definition text and, after the engine
// first resolves it, the output column names. The definition is stored as
// text (not a parsed tree) so the catalog stays independent of the SQL
// front end.
type ViewDef struct {
	Name string
	// Query is the SELECT text the view was created with.
	Query string
	// Columns optionally renames the view's output columns.
	Columns []string
}

// CreateView registers a view definition.
func (c *Catalog) CreateView(name, query string, columns []string) (*ViewDef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normalize(name)
	if key == "" {
		return nil, fmt.Errorf("catalog: empty view name")
	}
	if _, ok := c.views[key]; ok {
		return nil, fmt.Errorf("catalog: view %q already exists", name)
	}
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: a table named %q already exists", name)
	}
	v := &ViewDef{Name: key, Query: query, Columns: columns}
	c.views[key] = v
	c.version++
	return v, nil
}

// GetView looks a view up by name.
func (c *Catalog) GetView(name string) (*ViewDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[normalize(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no view named %q", name)
	}
	return v, nil
}

// HasView reports whether a view with the name exists.
func (c *Catalog) HasView(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.views[normalize(name)]
	return ok
}

// DropView removes a view definition.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := normalize(name)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: no view named %q", name)
	}
	delete(c.views, key)
	c.version++
	return nil
}
