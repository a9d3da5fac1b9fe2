package sqlir

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

const (
	// MaxTables is the widest catalog: a set of its tables is a TableSet,
	// one bit per table.
	MaxTables = 64
	// maxCatalogs bounds the intern: a full intern is cleared before its
	// next insert. DESIGN.md §7 states the worst-case bytes.
	maxCatalogs = 64
)

// TableSet is a set of one catalog's tables: bit t for ordinal t.
type TableSet uint64

// Has reports whether the set holds table t.
func (s TableSet) Has(t int) bool { return s&(1<<uint(t)) != 0 }

// With returns the set plus table t.
func (s TableSet) With(t int) TableSet { return s | 1<<uint(t) }

// Len returns the number of tables in the set.
func (s TableSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Ordinals returns the set's tables in ascending order.
func (s TableSet) Ordinals() []int {
	out := make([]int, 0, s.Len())
	for ; s != 0; s &= s - 1 {
		out = append(out, bits.TrailingZeros64(uint64(s)))
	}
	return out
}

// CatalogTable is one table of a catalog as it is declared: its name and
// its columns' names in declaration order.
type CatalogTable struct {
	Name    string
	Columns []string
}

// ColumnOrd is a column by ordinals: its table's ordinal in the catalog and
// its index among the table's columns.
type ColumnOrd struct {
	Table, Column int
}

// ForeignKey is a foreign key by ordinals: From holds the key, To is the
// column it references.
type ForeignKey struct {
	From, To ColumnOrd
}

// Catalog is the immutable shape of a schema that join paths are built
// over: its table names, each table's column names and its foreign keys. A
// table's ordinal is its rank by name and a column's its index among its
// table's columns. Catalogs are interned (InternCatalog), so every schema
// with one shape — a database, each of its frozen epochs, every request
// over either — shares one *Catalog and whatever is derived from it.
type Catalog struct {
	key      string
	names    []string       // by ordinal, ascending
	columns  [][]string     // by ordinal
	declared []int          // by ordinal: the table's place in the declaration
	index    map[string]int // name -> ordinal
	fks      []ForeignKey

	derivedOnce sync.Once
	derived     any
}

// catalogs interns one Catalog per shape (its key).
var catalogs struct {
	sync.Mutex
	m map[string]*Catalog
}

// InternCatalog returns the catalog of the declared tables and foreign keys
// (each written foreign key = referenced column): the same *Catalog for
// every call with the same declarations. A foreign key naming a table or
// column the tables lack joins nothing and is left out. It panics on more
// than MaxTables tables, which no TableSet can hold.
func InternCatalog(tables []CatalogTable, fks []JoinOn) *Catalog {
	if len(tables) > MaxTables {
		panic(fmt.Sprintf("sqlir: a catalog of %d tables exceeds the limit of %d", len(tables), MaxTables))
	}
	key := fmt.Sprintf("%#v|%#v", tables, fks) // Go syntax: quoted, so injective
	catalogs.Lock()
	defer catalogs.Unlock()
	if c := catalogs.m[key]; c != nil {
		return c
	}
	if catalogs.m == nil || len(catalogs.m) >= maxCatalogs {
		catalogs.m = map[string]*Catalog{}
	}
	c := newCatalog(key, tables, fks)
	catalogs.m[key] = c
	return c
}

func newCatalog(key string, tables []CatalogTable, fks []JoinOn) *Catalog {
	c := &Catalog{key: key, declared: make([]int, len(tables)), index: make(map[string]int, len(tables))}
	for i := range c.declared {
		c.declared[i] = i
	}
	slices.SortStableFunc(c.declared, func(a, b int) int { return strings.Compare(tables[a].Name, tables[b].Name) })
	for t, d := range c.declared {
		c.names = append(c.names, tables[d].Name)
		c.columns = append(c.columns, tables[d].Columns)
		c.index[tables[d].Name] = t
	}
	for _, fk := range fks {
		from, ok1 := c.column(fk.Left)
		to, ok2 := c.column(fk.Right)
		if ok1 && ok2 {
			c.fks = append(c.fks, ForeignKey{From: from, To: to})
		}
	}
	return c
}

// NumTables returns the number of tables.
func (c *Catalog) NumTables() int { return len(c.names) }

// Name returns table t's name.
func (c *Catalog) Name(t int) string { return c.names[t] }

// Ordinal returns the named table's ordinal.
func (c *Catalog) Ordinal(name string) (int, bool) {
	t, ok := c.index[name]
	return t, ok
}

// Declared returns table t's place in the catalog's declaration.
func (c *Catalog) Declared(t int) int { return c.declared[t] }

// Columns returns table t's column names. Callers must not modify them.
func (c *Catalog) Columns(t int) []string { return c.columns[t] }

// ForeignKeys returns the foreign keys in declaration order. Callers must
// not modify them.
func (c *Catalog) ForeignKeys() []ForeignKey { return c.fks }

// Same reports whether two catalogs have one shape: the same interned
// catalog, or one declared alike after the intern forgot the other.
func (c *Catalog) Same(o *Catalog) bool { return c == o || (o != nil && c.key == o.key) }

// Derived returns what build derives from the catalog, building it on the
// first call. A package that keeps state per catalog (schemagraph's join
// graph and its memo) keeps it here, so the catalog intern is the only one.
func (c *Catalog) Derived(build func(*Catalog) any) any {
	c.derivedOnce.Do(func() { c.derived = build(c) })
	return c.derived
}

// column resolves a column by names.
func (c *Catalog) column(ref ColumnRef) (ColumnOrd, bool) {
	t, ok := c.index[ref.Table]
	if !ok {
		return ColumnOrd{}, false
	}
	ci := slices.Index(c.columns[t], ref.Column)
	return ColumnOrd{t, ci}, ci >= 0
}

// columnRef names a column.
func (c *Catalog) columnRef(o ColumnOrd) ColumnRef {
	return ColumnRef{Table: c.names[o.Table], Column: c.columns[o.Table][o.Column]}
}
