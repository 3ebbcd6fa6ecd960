package sqlair

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// typeInfo is the cached mapping between one Go struct type and its database
// columns, derived once per type from `db:"column"` field tags and reused by
// every statement that mentions the type.
type typeInfo struct {
	typ    reflect.Type
	name   string
	fields []fieldInfo
	byCol  map[string]int
}

// fieldInfo records one tagged struct field: the column it binds to and the
// field's index within the struct.
type fieldInfo struct {
	col   string
	index int
}

// columns returns the type's column names in field-declaration order — the
// expansion of `&Type.*`.
func (ti *typeInfo) columns() []string {
	cols := make([]string, len(ti.fields))
	for i, f := range ti.fields {
		cols[i] = f.col
	}
	return cols
}

// typeCache memoises typeInfo per reflect.Type. Reflection over a struct's
// fields and tags is paid once per type per process, not once per query.
var typeCache = struct {
	sync.RWMutex
	m      map[reflect.Type]*typeInfo
	hits   atomic.Uint64
	misses atomic.Uint64
}{m: make(map[reflect.Type]*typeInfo)}

// typeCacheStats reports how often type reflection was served from cache.
// After warmup every lookup should be a hit; the miss count equals the number
// of distinct struct types the process has mapped.
func typeCacheStats() (hits, misses uint64) {
	return typeCache.hits.Load(), typeCache.misses.Load()
}

// typeInfoOf returns the cached mapping for a struct type (or pointer to
// struct), building it on first sight. Types must be named — anonymous
// structs have no name for query text to reference.
func typeInfoOf(t reflect.Type) (*typeInfo, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	typeCache.RLock()
	ti, ok := typeCache.m[t]
	typeCache.RUnlock()
	if ok {
		typeCache.hits.Add(1)
		return ti, nil
	}
	typeCache.misses.Add(1)
	ti, err := buildTypeInfo(t)
	if err != nil {
		return nil, err
	}
	typeCache.Lock()
	if prior, ok := typeCache.m[t]; ok {
		ti = prior
	} else {
		typeCache.m[t] = ti
	}
	typeCache.Unlock()
	return ti, nil
}

func buildTypeInfo(t reflect.Type) (*typeInfo, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("sqlair: %s is not a struct type", t)
	}
	if t.Name() == "" {
		return nil, fmt.Errorf("sqlair: anonymous struct types cannot be referenced from query text")
	}
	ti := &typeInfo{typ: t, name: t.Name(), byCol: make(map[string]int)}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("db")
		if !ok {
			continue
		}
		col := tag
		for j := 0; j < len(tag); j++ {
			if tag[j] == ',' {
				col = tag[:j]
				break
			}
		}
		if col == "" || col == "-" {
			continue
		}
		if !f.IsExported() {
			return nil, fmt.Errorf("sqlair: %s.%s is tagged db:%q but not exported", t.Name(), f.Name, col)
		}
		if prev, dup := ti.byCol[col]; dup {
			return nil, fmt.Errorf("sqlair: %s tags both %s and %s as column %q",
				t.Name(), t.Field(ti.fields[prev].index).Name, f.Name, col)
		}
		ti.byCol[col] = len(ti.fields)
		ti.fields = append(ti.fields, fieldInfo{col: col, index: i})
	}
	if len(ti.fields) == 0 {
		return nil, fmt.Errorf("sqlair: %s has no db-tagged fields", t.Name())
	}
	return ti, nil
}

// sortedColumns is a deterministic listing for error messages.
func (ti *typeInfo) sortedColumns() []string {
	cols := ti.columns()
	sort.Strings(cols)
	return cols
}

// valueForField converts one struct field's Go value into an engine value.
func valueForField(rv reflect.Value) (types.Value, error) {
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return types.Null(), nil
		}
		rv = rv.Elem()
	}
	switch v := rv.Interface().(type) {
	case types.Value:
		return v, nil
	case time.Time:
		return types.NewDate(v.Year(), v.Month(), v.Day()), nil
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return types.NewInt(rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := rv.Uint()
		if u > 1<<63-1 {
			return types.Value{}, fmt.Errorf("sqlair: %d overflows the engine's integer type", u)
		}
		return types.NewInt(int64(u)), nil
	case reflect.Float32, reflect.Float64:
		return types.NewFloat(rv.Float()), nil
	case reflect.String:
		return types.NewString(rv.String()), nil
	case reflect.Bool:
		return types.NewBool(rv.Bool()), nil
	}
	return types.Value{}, fmt.Errorf("sqlair: cannot convert field type %s to an engine value", rv.Type())
}

// setField assigns an engine value into one struct field, casting to the
// field's Go type. NULL becomes the zero value (or nil for pointer fields).
func setField(rv reflect.Value, v types.Value) error {
	if rv.Kind() == reflect.Pointer {
		if v.IsNull() {
			rv.SetZero()
			return nil
		}
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		rv = rv.Elem()
	}
	if rv.Type() == reflect.TypeOf(types.Value{}) {
		rv.Set(reflect.ValueOf(v))
		return nil
	}
	if v.IsNull() {
		rv.SetZero()
		return nil
	}
	if rv.Type() == reflect.TypeOf(time.Time{}) {
		cast, err := v.Cast(types.KindDate)
		if err != nil {
			return err
		}
		rv.Set(reflect.ValueOf(cast.Time()))
		return nil
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		cast, err := v.Cast(types.KindInt)
		if err != nil {
			return err
		}
		rv.SetInt(cast.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		cast, err := v.Cast(types.KindInt)
		if err != nil {
			return err
		}
		if cast.Int() < 0 {
			return fmt.Errorf("sqlair: negative value %d for unsigned field", cast.Int())
		}
		rv.SetUint(uint64(cast.Int()))
	case reflect.Float32, reflect.Float64:
		cast, err := v.Cast(types.KindFloat)
		if err != nil {
			return err
		}
		rv.SetFloat(cast.Float())
	case reflect.String:
		rv.SetString(v.String())
	case reflect.Bool:
		cast, err := v.Cast(types.KindBool)
		if err != nil {
			return err
		}
		rv.SetBool(cast.Bool())
	default:
		return fmt.Errorf("sqlair: cannot scan into field type %s", rv.Type())
	}
	return nil
}
