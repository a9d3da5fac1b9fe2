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

// CatalogTable is one table of a catalog as it is declared: its name, its
// columns' names in declaration order and their types (TypeUnknown where
// Types is short).
type CatalogTable struct {
	Name    string
	Columns []string
	Types   []Type
}

// CatalogFK is a foreign key as it is declared: Table.Column references
// RefTable.RefColumn.
type CatalogFK struct {
	Table, Column, RefTable, RefColumn string
}

// String renders the constraint.
func (fk CatalogFK) String() string {
	return fk.Table + "." + fk.Column + " -> " + fk.RefTable + "." + fk.RefColumn
}

// ForeignKey is a foreign key of a catalog: From holds the key, To is the
// column it references.
type ForeignKey struct {
	From, To ColumnRef
}

// Catalog is the immutable shape of a schema: its table names, each
// table's column names and types, and its foreign keys. A table's ordinal
// is its rank by name and a column's its index among its table's columns;
// a ColumnRef is the pair, minted only here. Catalogs are interned
// (InternCatalog), so every schema with one shape — a database, each of its
// frozen epochs, every request over either — shares one *Catalog and
// whatever is derived from it.
type Catalog struct {
	key      string
	names    []string       // by ordinal, ascending
	columns  [][]string     // by ordinal
	types    [][]Type       // by ordinal, aligned with columns
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

// InternCatalog returns the catalog of the declared tables and foreign
// keys: the same *Catalog for every call with the same declarations. A
// foreign key naming a table or column the tables lack joins nothing and is
// left out. It panics on more than MaxTables tables, which no TableSet can
// hold.
func InternCatalog(tables []CatalogTable, fks []CatalogFK) *Catalog {
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

func newCatalog(key string, tables []CatalogTable, fks []CatalogFK) *Catalog {
	c := &Catalog{key: key, declared: make([]int, len(tables)), index: make(map[string]int, len(tables))}
	for i := range c.declared {
		c.declared[i] = i
	}
	slices.SortStableFunc(c.declared, func(a, b int) int { return strings.Compare(tables[a].Name, tables[b].Name) })
	for t, d := range c.declared {
		c.names = append(c.names, tables[d].Name)
		c.columns = append(c.columns, tables[d].Columns)
		types := make([]Type, len(tables[d].Columns))
		copy(types, tables[d].Types)
		c.types = append(c.types, types)
		c.index[tables[d].Name] = t
	}
	for _, fk := range fks {
		from, err1 := c.Col(fk.Table, fk.Column)
		to, err2 := c.Col(fk.RefTable, fk.RefColumn)
		if err1 == nil && err2 == nil {
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

// Col returns the named column: the boundary where a name becomes a
// ColumnRef. An unknown table or column fails with one text.
func (c *Catalog) Col(table, column string) (ColumnRef, error) {
	if t, ok := c.index[table]; ok {
		if ci := slices.Index(c.columns[t], column); ci >= 0 {
			return c.Column(t, ci), nil
		}
	}
	return ColumnRef{}, fmt.Errorf("sqlir: unknown column %s.%s", table, column)
}

// MustCol is Col for a name that is a constant of the program (a dataset's
// gold query); it panics on an unknown one.
func (c *Catalog) MustCol(table, column string) ColumnRef {
	ref, err := c.Col(table, column)
	if err != nil {
		panic(err)
	}
	return ref
}

// Column returns column ci of table t.
func (c *Catalog) Column(t, ci int) ColumnRef {
	return ColumnRef{cat: c, table: int32(t), column: int32(ci)}
}

// own returns ref as a column of c when ref's catalog has c's shape.
func (c *Catalog) own(ref ColumnRef) (ColumnRef, bool) {
	if !c.Same(ref.cat) {
		return ColumnRef{}, false
	}
	ref.cat = c
	return ref, true
}
