// Package storage implements the in-memory relational storage engine that
// Duoquest runs on: tables stored as one typed vector per column, and a
// catalog of foreign key → primary key relationships (the only join edges in
// the paper's task scope, §2.5).
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// Column describes one table column.
type Column struct {
	Name string
	Type sqlir.Type
}

// ForeignKey declares Table.Column references RefTable.RefColumn (a primary
// key). Duoquest requires FK-PK constraints to be explicit on the schema
// (§4.1).
type ForeignKey = sqlir.CatalogFK

// Table is a named collection of typed rows, stored column-wise: one typed
// vector per column (see column.go) and nothing else. Row i is cell i of
// every vector; VectorAt(ci).Value(ri) reads one cell.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey string

	vecs   []ColumnVec
	colIdx map[string]int

	// gen counts data changes. It is purely internal: epoch publication
	// (epoch.go) compares generations to decide which tables need a fresh
	// view and which can share the previous epoch's. Cross-request caches
	// no longer watch it — they key by frozen snapshot identity instead.
	gen atomic.Int64

	// frozen marks an immutable epoch snapshot table (epoch.go); mutation
	// attempts fail instead of corrupting published epochs.
	frozen bool

	// base is the previous epoch's frozen table (set at freeze, epoch.go).
	// adoptBase extends the base's ready code indexes with just the
	// appended suffix, appending into the base's posting lists
	// (CodeIndex.extendFrom), then drops the reference, so an epoch boundary
	// costs O(distinct keys + delta) per index on first read instead of
	// O(n).
	base      *Table
	adoptOnce sync.Once
	adopted   atomic.Bool

	// hashMu guards codeIdx and stats.
	hashMu  sync.Mutex
	codeIdx map[int]*CodeIndex
	// stats memoizes per-column statistics by column index, cleared
	// together with the lazy indexes on mutation (direct invalidation — the
	// table knows exactly when its own data changes). Frozen snapshot
	// tables never clear it, so an epoch's statistics are computed at most
	// once, ever.
	stats map[int]ColumnStats
}

// NewTable creates an empty table.
func NewTable(name string, pk string, cols ...Column) *Table {
	t := &Table{Name: name, Columns: cols, PrimaryKey: pk, colIdx: map[string]int{}}
	t.vecs = make([]ColumnVec, len(cols))
	for i, c := range cols {
		t.colIdx[c.Name] = i
		t.vecs[i].typ = c.Type
	}
	return t
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column definition.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.vecs) > 0 {
		return t.vecs[0].n
	}
	return 0
}

// adoptBase performs the one-shot adoption of the previous epoch's frozen
// table (handed over at freeze, epoch.go): every posting-list index the base
// had already built is extended with just the appended rows. CodeIndex calls
// it first, so adoption always precedes a from-scratch build. The base
// reference is dropped afterwards and publication (epoch.go) only links
// adopted tables as bases, so chains never deepen past one hop.
func (t *Table) adoptBase() {
	t.adoptOnce.Do(func() {
		if b := t.base; b != nil {
			t.adoptCodeIndexes(b)
			t.base = nil
		}
		t.adopted.Store(true)
	})
}

// adoptCodeIndexes extends every ready typed posting-list index of the base
// table. An extension that cannot keep the base's dense layout (a delta
// value outside the dense range) is skipped: the index rebuilds lazily on
// demand instead.
func (t *Table) adoptCodeIndexes(b *Table) {
	baseN := b.NumRows()
	b.hashMu.Lock()
	bc := make(map[int]*CodeIndex, len(b.codeIdx))
	for ci, ix := range b.codeIdx {
		bc[ci] = ix
	}
	b.hashMu.Unlock()
	for ci, bix := range bc {
		if !bix.ready.Load() || ci >= len(t.vecs) {
			continue
		}
		nix := &CodeIndex{vec: &t.vecs[ci]}
		if !nix.extendFrom(bix, baseN) {
			continue
		}
		nix.once.Do(func() {}) // mark built so CodeIndex never rebuilds it
		nix.ready.Store(true)
		t.hashMu.Lock()
		if t.codeIdx == nil {
			t.codeIdx = map[int]*CodeIndex{}
		}
		t.codeIdx[ci] = nix
		t.hashMu.Unlock()
	}
}

// Insert appends a row after checking arity and types. NULLs are accepted in
// any column.
func (t *Table) Insert(vals ...sqlir.Value) error {
	if t.frozen {
		return fmt.Errorf("storage: table %s: cannot insert into a frozen snapshot", t.Name)
	}
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("storage: table %s: insert arity %d, want %d", t.Name, len(vals), len(t.Columns))
	}
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		if v.Type() != t.Columns[i].Type {
			return fmt.Errorf("storage: table %s column %s: value %s has type %s, want %s",
				t.Name, t.Columns[i].Name, v, v.Type(), t.Columns[i].Type)
		}
	}
	for i, v := range vals {
		t.vecs[i].appendValue(v)
	}
	t.hashMu.Lock()
	t.codeIdx = nil // built posting-list indexes no longer cover the new row
	t.stats = nil   // nor do the memoized column statistics
	t.hashMu.Unlock()
	t.gen.Add(1)
	return nil
}

// MustInsert inserts and panics on error; intended for dataset construction
// code where a failure is a programming bug.
func (t *Table) MustInsert(vals ...sqlir.Value) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// ColumnStats summarises one column for verification and PBE abduction.
type ColumnStats struct {
	Min, Max sqlir.Value // over non-null values; Null if column empty
	Distinct int
	NonNull  int
	NaN      int // NaN values among the non-null ones of a numeric column
}

// Stats returns memoized statistics of column ci. The memo lives on the
// table and is cleared together with the lazy indexes whenever the table
// mutates; on frozen snapshot tables it is therefore computed at most once
// per epoch.
func (t *Table) Stats(ci int) ColumnStats {
	t.hashMu.Lock()
	if st, ok := t.stats[ci]; ok {
		t.hashMu.Unlock()
		return st
	}
	t.hashMu.Unlock()
	st := t.computeStats(ci)
	t.hashMu.Lock()
	if t.stats == nil {
		t.stats = map[int]ColumnStats{}
	}
	t.stats[ci] = st
	t.hashMu.Unlock()
	return st
}

// computeStats scans the typed vectors: a float scan for numeric columns,
// and for text columns the distinct count is simply the dictionary size —
// every interned string was inserted at least once and rows are never
// deleted.
func (t *Table) computeStats(ci int) ColumnStats {
	vec := &t.vecs[ci]
	var st ColumnStats
	st.NonNull = vec.n - vec.nullCount
	if st.NonNull == 0 {
		return st
	}
	switch vec.typ {
	case sqlir.TypeNumber:
		seen := make(map[float64]struct{}, st.NonNull)
		first := true
		var lo, hi float64
		for i := 0; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			f := vec.nums[i]
			if math.IsNaN(f) {
				st.NaN++
			}
			if first {
				lo, hi, first = f, f, false
			} else {
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
			}
			seen[f] = struct{}{}
		}
		st.Min, st.Max = sqlir.NewNumber(lo), sqlir.NewNumber(hi)
		st.Distinct = len(seen)
	case sqlir.TypeText:
		strs := vec.dict.Strings()
		lo, hi := strs[0], strs[0]
		for _, s := range strs[1:] {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		st.Min, st.Max = sqlir.NewText(lo), sqlir.NewText(hi)
		st.Distinct = vec.dict.Size()
	}
	return st
}

// DistinctValues returns up to max distinct non-null values of the column in
// sorted order (max <= 0 means all). Text columns read the dictionary —
// already deduplicated — instead of scanning rows.
func (t *Table) DistinctValues(col string, max int) ([]sqlir.Value, error) {
	ci := t.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	vec := &t.vecs[ci]
	var out []sqlir.Value
	switch vec.typ {
	case sqlir.TypeNumber:
		seen := make(map[float64]struct{})
		for i := 0; i < vec.n; i++ {
			if !vec.IsNull(i) {
				seen[vec.nums[i]] = struct{}{}
			}
		}
		for _, f := range sortFloats(seen) {
			out = append(out, sqlir.NewNumber(f))
		}
	case sqlir.TypeText:
		if vec.dict != nil {
			strs := append([]string{}, vec.dict.Strings()...)
			sort.Strings(strs)
			for _, s := range strs {
				out = append(out, sqlir.NewText(s))
			}
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, nil
}

// Schema is the catalog: tables plus FK-PK constraints. Its catalog is
// taken at the first Catalog or Table call, so declare it first: only
// AddForeignKey drops a catalog already taken.
type Schema struct {
	Tables      []*Table
	ForeignKeys []ForeignKey

	cat atomic.Pointer[sqlir.Catalog] // its name index and column types are the schema's
}

// NewSchema builds a schema over the given tables.
func NewSchema(tables ...*Table) *Schema {
	return &Schema{Tables: tables}
}

// AddForeignKey registers an FK-PK constraint.
func (s *Schema) AddForeignKey(table, column, refTable, refColumn string) {
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{Table: table, Column: column, RefTable: refTable, RefColumn: refColumn})
	s.cat.Store(nil)
}

// Catalog returns the schema's interned catalog (sqlir.InternCatalog): its
// table names, column names and types and foreign keys as they stand at
// the first call. Every call returns one pointer, so the schema's column
// refs compare with ==. A frozen epoch's schema keeps its source's.
func (s *Schema) Catalog() *sqlir.Catalog {
	if c := s.cat.Load(); c != nil {
		return c
	}
	return s.intern()
}

// intern interns the schema's declaration and returns the catalog the
// schema holds: the first one stored, when a concurrent first call stored
// one before (the intern may have cleared in between, making it another
// pointer).
func (s *Schema) intern() *sqlir.Catalog {
	tables := make([]sqlir.CatalogTable, len(s.Tables))
	for i, t := range s.Tables {
		tables[i].Name = t.Name
		for _, c := range t.Columns {
			tables[i].Columns = append(tables[i].Columns, c.Name)
			tables[i].Types = append(tables[i].Types, c.Type)
		}
	}
	c := sqlir.InternCatalog(tables, s.ForeignKeys)
	if s.cat.CompareAndSwap(nil, c) {
		return c
	}
	return s.cat.Load()
}

// TableAt returns the table whose catalog ordinal is t.
func (s *Schema) TableAt(t int) *Table { return s.Tables[s.Catalog().Declared(t)] }

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	c := s.Catalog()
	if t, ok := c.Ordinal(name); ok {
		return s.Tables[c.Declared(t)]
	}
	return nil
}

// Validate checks structural consistency: at most sqlir.MaxTables tables,
// unique table/column names, FK endpoints exist, FK references a table's
// primary key, and FK/PK column types agree.
func (s *Schema) Validate() error {
	if len(s.Tables) > sqlir.MaxTables {
		return fmt.Errorf("storage: schema has %d tables; a catalog holds at most %d", len(s.Tables), sqlir.MaxTables)
	}
	names := map[string]bool{}
	for _, t := range s.Tables {
		if names[t.Name] {
			return fmt.Errorf("storage: duplicate table %s", t.Name)
		}
		names[t.Name] = true
		cols := map[string]bool{}
		for _, c := range t.Columns {
			if cols[c.Name] {
				return fmt.Errorf("storage: table %s: duplicate column %s", t.Name, c.Name)
			}
			cols[c.Name] = true
			if c.Type == sqlir.TypeUnknown {
				return fmt.Errorf("storage: table %s: column %s has unknown type", t.Name, c.Name)
			}
		}
		if t.PrimaryKey != "" && t.ColumnIndex(t.PrimaryKey) < 0 {
			return fmt.Errorf("storage: table %s: primary key %s not a column", t.Name, t.PrimaryKey)
		}
	}
	for _, fk := range s.ForeignKeys {
		ft := s.Table(fk.Table)
		rt := s.Table(fk.RefTable)
		if ft == nil || rt == nil {
			return fmt.Errorf("storage: foreign key %s: unknown table", fk)
		}
		fc, ok1 := ft.Column(fk.Column)
		rc, ok2 := rt.Column(fk.RefColumn)
		if !ok1 || !ok2 {
			return fmt.Errorf("storage: foreign key %s: unknown column", fk)
		}
		if rt.PrimaryKey != fk.RefColumn {
			return fmt.Errorf("storage: foreign key %s: referenced column is not %s's primary key", fk, fk.RefTable)
		}
		if fc.Type != rc.Type {
			return fmt.Errorf("storage: foreign key %s: type mismatch %s vs %s", fk, fc.Type, rc.Type)
		}
	}
	return nil
}

// NumColumns returns the total column count across tables (Table 5 stats).
func (s *Schema) NumColumns() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Columns)
	}
	return n
}

// TextColumns lists every (table, column) pair of text type — the master
// inverted column index in the paper's autocomplete server spans these.
func (s *Schema) TextColumns() []sqlir.ColumnRef {
	cat := s.Catalog()
	var out []sqlir.ColumnRef
	for _, t := range s.Tables {
		o, _ := cat.Ordinal(t.Name)
		for ci, c := range t.Columns {
			if c.Type == sqlir.TypeText {
				out = append(out, cat.Column(o, ci))
			}
		}
	}
	return out
}

// Database is a schema plus its data, with per-table memoized statistics
// and an epoch publication log (epoch.go) for snapshot-isolated readers.
type Database struct {
	Name   string
	Schema *Schema

	// Epoch publication state (epoch.go). writeMu serializes Append batches
	// and epoch publication; latest holds the newest published view, the
	// only one the live database keeps.
	writeMu  sync.Mutex
	latest   atomic.Pointer[dbView]
	epochSeq int64 // last assigned epoch number; guarded by writeMu

	// frozen marks an immutable epoch snapshot; snapEpoch is its number.
	frozen    bool
	snapEpoch int64
}

// NewDatabase wraps a schema as a database.
func NewDatabase(name string, schema *Schema) *Database {
	return &Database{Name: name, Schema: schema}
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table { return d.Schema.Table(name) }

// Stats returns memoized statistics of a column of the database's catalog,
// delegating to the table's own memo. The memo is cleared by the table when
// its data changes, so statistics never describe pre-mutation data; on a
// frozen snapshot they are simply permanent.
func (d *Database) Stats(c sqlir.ColumnRef) ColumnStats {
	return d.Schema.TableAt(c.Table()).Stats(c.Column())
}

// TotalRows returns the sum of all table row counts.
func (d *Database) TotalRows() int {
	n := 0
	for _, t := range d.Schema.Tables {
		n += t.NumRows()
	}
	return n
}
