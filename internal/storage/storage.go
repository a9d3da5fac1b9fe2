// Package storage implements the in-memory relational storage engine that
// Duoquest runs on: tables stored as one typed vector per column, and a
// catalog of foreign key → primary key relationships (the only join edges in
// the paper's task scope, §2.5).
package storage

import (
	"fmt"
	"slices"
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

	// base is the previous epoch's frozen table (set at freeze, epoch.go):
	// this table's first read of a code index extends the base's ready
	// index with just the appended rows, sharing its chunks and appending
	// into its posting lists (CodeIndex.extendFrom), and its first read of
	// a column's statistics folds the base's over those rows
	// (computeStats), so an epoch boundary costs the delta, not O(n). The
	// publication that links this table as a successor's base clears it,
	// so a chain is one hop.
	base atomic.Pointer[Table]

	// hashMu guards codeIdx and stats.
	hashMu  sync.Mutex
	codeIdx map[int]*CodeIndex
	// stats memoizes per-column statistics by column index, cleared
	// together with the lazy indexes on mutation (direct invalidation — the
	// table knows exactly when its own data changes). Frozen snapshot
	// tables never clear it, so once stored an epoch's statistics are never
	// recomputed; concurrent first readers may each compute them (Stats).
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

// Insert appends a row after checking arity and types. NULLs are accepted in
// any column, and a NaN is stored as NULL.
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
	t.rowsChanged()
	return nil
}

// SetVectors gives a table without rows its rows as whole column vectors,
// one per column in schema order, as DecodeVector returns them. The table
// takes the vectors as they are, without copying them. It refuses a frozen
// table, a table with rows, a wrong count, a vector of the wrong type and
// vectors of unequal lengths. Like Insert, it must not run concurrently
// with queries on the table.
func (t *Table) SetVectors(vecs []ColumnVec) error {
	if t.frozen {
		return fmt.Errorf("storage: table %s: cannot set the vectors of a frozen snapshot", t.Name)
	}
	if n := t.NumRows(); n > 0 {
		return fmt.Errorf("storage: table %s: cannot set the vectors of a table holding %d rows", t.Name, n)
	}
	if len(vecs) != len(t.Columns) {
		return fmt.Errorf("storage: table %s: %d vectors for %d columns", t.Name, len(vecs), len(t.Columns))
	}
	for i := range vecs {
		if vecs[i].typ != t.Columns[i].Type {
			return fmt.Errorf("storage: table %s column %s: vector of type %s, want %s",
				t.Name, t.Columns[i].Name, vecs[i].typ, t.Columns[i].Type)
		}
		if vecs[i].n != vecs[0].n {
			return fmt.Errorf("storage: table %s column %s: %d rows, column %s has %d",
				t.Name, t.Columns[i].Name, vecs[i].n, t.Columns[0].Name, vecs[0].n)
		}
	}
	copy(t.vecs, vecs)
	for i := range t.vecs {
		if v := &t.vecs[i]; len(v.nulls) < (v.n+63)>>6 {
			// A snapshot's vector: its last bitmap word goes back into the
			// bitmap, where appends set bits.
			v.nulls, v.tail = append(slices.Clip(v.nulls), v.tail), 0
		}
	}
	t.rowsChanged()
	return nil
}

// rowsChanged drops what the table derived from its rows — the posting-list
// indexes and the memoized column statistics — and moves the generation,
// once per Insert, BulkAppend or SetVectors.
func (t *Table) rowsChanged() {
	t.hashMu.Lock()
	t.codeIdx = nil
	t.stats = nil
	t.hashMu.Unlock()
	t.gen.Add(1)
}

// MustInsert inserts and panics on error; intended for dataset construction
// code where a failure is a programming bug.
func (t *Table) MustInsert(vals ...sqlir.Value) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// ColumnStats summarises one column for verification and guidance: the
// range of its values and how many rows hold one. A text column's distinct
// count is its dictionary's Size.
type ColumnStats struct {
	Min, Max sqlir.Value // over non-null values; Null if there are none
	NonNull  int
}

// Stats returns memoized statistics of column ci. The memo lives on the
// table and is cleared together with the lazy indexes whenever the table
// mutates, so on a frozen snapshot table a stored entry serves every later
// call. The computation runs outside hashMu, so readers that miss at once
// each compute it, and the last one to finish stores its copy. A frozen
// table whose base has the column's statistics folds them over its
// appended rows (computeStats), so a new epoch's statistics cost its delta.
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

// computeStats takes the range in one pass, in row order for a numeric
// column and in code order over the dictionary for a text column — every
// interned string is in some row, since rows are never deleted. When the
// base table (epoch.go) has memoized the column's statistics, the pass
// starts from them and reads only the rows, or the dictionary entries,
// added since: the base's rows and dictionary are a prefix of the table's,
// so the fold visits the values a fresh pass would, in the same order, and
// keeps the same minimum and maximum.
func (t *Table) computeStats(ci int) ColumnStats {
	vec := &t.vecs[ci]
	if vec.n == vec.nullCount {
		return ColumnStats{}
	}
	var st ColumnStats
	from := 0
	if b := t.base.Load(); b != nil {
		b.hashMu.Lock()
		bst, ok := b.stats[ci]
		b.hashMu.Unlock()
		if ok {
			st = bst
			from = b.NumRows()
			if vec.typ == sqlir.TypeText {
				from = b.vecs[ci].dict.Size()
			}
		}
	}
	st.NonNull = vec.n - vec.nullCount
	switch vec.typ {
	case sqlir.TypeNumber:
		lo, hi, seen := st.Min.Num, st.Max.Num, !st.Min.IsNull()
		for i := from; i < vec.n; i++ {
			if vec.IsNull(i) {
				continue
			}
			f := vec.nums[i]
			if !seen || f < lo {
				lo = f
			}
			if !seen || f > hi {
				hi = f
			}
			seen = true
		}
		if seen {
			st.Min, st.Max = sqlir.NewNumber(lo), sqlir.NewNumber(hi)
		}
	case sqlir.TypeText:
		lo, hi, seen := st.Min.Text, st.Max.Text, !st.Min.IsNull()
		for _, s := range vec.dict.Strings()[from:] {
			if !seen || s < lo {
				lo = s
			}
			if !seen || s > hi {
				hi = s
			}
			seen = true
		}
		if seen {
			st.Min, st.Max = sqlir.NewText(lo), sqlir.NewText(hi)
		}
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
