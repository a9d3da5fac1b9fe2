package sqlir

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// movieCatalog is movie, actor and starring, whose two foreign keys
// reference the other two, and a table t.
func movieCatalog() *Catalog {
	num, text := TypeNumber, TypeText
	return InternCatalog([]CatalogTable{
		{"movie", []string{"mid", "name", "year", "title"}, []Type{num, text, num, text}},
		{"starring", []string{"mid", "aid", "sid"}, []Type{num, num, num}},
		{"actor", []string{"aid", "name"}, []Type{num, text}},
		{"t", []string{"a", "b", "c", "d"}, []Type{num, num, num, num}},
	}, []CatalogFK{
		{"starring", "mid", "movie", "mid"},
		{"starring", "aid", "actor", "aid"},
	})
}

// col is movieCatalog's column written table.column.
func col(s string) ColumnRef {
	t, c, _ := strings.Cut(s, ".")
	return movieCatalog().MustCol(t, c)
}

// on is the condition l = r, each written table.column.
func on(l, r string) JoinOn { return JoinOn{col(l), col(r)} }

// mustPath is movieCatalog's path from root over the conditions.
func mustPath(root string, conds ...JoinOn) *JoinPath {
	jp, err := movieCatalog().Path(root, conds...)
	if err != nil {
		panic(err)
	}
	return jp
}

// Tables are ranked by name, columns keep their order, and one declaration
// is one catalog.
func TestCatalogNumbering(t *testing.T) {
	c := movieCatalog()
	if c != movieCatalog() {
		t.Error("one declaration interned twice")
	}
	var names []string
	for i := range c.NumTables() {
		names = append(names, c.Name(i))
	}
	if got := strings.Join(names, " "); got != "actor movie starring t" {
		t.Errorf("ordinals name %s", got)
	}
	if o, ok := c.Ordinal("starring"); !ok || o != 2 || c.Columns(o)[1] != "aid" {
		t.Errorf("starring is ordinal %d (%v), columns %v", o, ok, c.Columns(o))
	}
	want := []ForeignKey{{c.Column(2, 0), c.Column(1, 0)}, {c.Column(2, 1), c.Column(0, 0)}}
	if !slices.Equal(c.ForeignKeys(), want) || fmt.Sprint(want) != "[{starring.mid movie.mid} {starring.aid actor.aid}]" {
		t.Errorf("foreign keys %v, want %v", c.ForeignKeys(), want)
	}
	if r := col("movie.year"); r.Table() != 1 || r.Column() != 2 || r.Type() != TypeNumber || r.String() != "movie.year" {
		t.Errorf("movie.year is %d.%d of type %s, printed %s", r.Table(), r.Column(), r.Type(), r)
	}
	for _, name := range [][2]string{{"movie", "nope"}, {"ghost", "id"}} {
		if _, err := c.Col(name[0], name[1]); err == nil || err.Error() != "sqlir: unknown column "+name[0]+"."+name[1] {
			t.Errorf("%v: %v", name, err)
		}
	}
	dangling := InternCatalog([]CatalogTable{{Name: "a", Columns: []string{"x"}}}, []CatalogFK{{"a", "x", "b", "y"}, {"a", "z", "a", "x"}})
	if len(dangling.ForeignKeys()) != 0 {
		t.Errorf("dangling foreign keys kept: %v", dangling.ForeignKeys())
	}
}

// A path is built oriented, keeps the written direction of each condition,
// and a malformed one is never built.
func TestCatalogPath(t *testing.T) {
	jp := mustPath("actor", on("starring.aid", "actor.aid"), on("movie.mid", "starring.mid"))
	if got := fmt.Sprint(jp.Tables()); got != "[0 2 1]" {
		t.Errorf("tables %s", got)
	}
	c := movieCatalog()
	want := []JoinEdge{{c.Column(0, 0), c.Column(2, 1), true}, {c.Column(2, 0), c.Column(1, 0), true}}
	if !slices.Equal(jp.Edges(), want) {
		t.Errorf("edges %v, want %v", jp.Edges(), want)
	}
	if jp.Set() != TableSet(0).With(0).With(1).With(2) {
		t.Errorf("set %b", jp.Set())
	}
	fk := movieCatalog().Root(0).JoinFK(1, 0)
	if fk.String() != "actor JOIN starring ON starring.aid = actor.aid JOIN movie ON starring.mid = movie.mid" {
		t.Errorf("JoinFK: %v", fk)
	}
	for _, tc := range []struct {
		root  string
		conds []JoinOn
		want  string
	}{
		{"director", nil, "sqlir: unknown table director"},
		{"movie", []JoinOn{{Star, col("movie.mid")}}, "sqlir: join condition * = movie.mid names an unknown column"},
		{"movie", []JoinOn{{col("starring.mid"), otherShape().MustCol("movie", "mid")}}, "sqlir: join condition starring.mid = movie.mid names an unknown column"},
		{"movie", []JoinOn{on("starring.aid", "actor.aid")}, "sqlir: join condition starring.aid = actor.aid joins no table joined before it"},
		{"movie", []JoinOn{on("starring.mid", "movie.mid"), on("movie.mid", "starring.mid")}, "sqlir: join condition movie.mid = starring.mid joins tables already joined"},
		{"movie", []JoinOn{on("movie.mid", "movie.year")}, "sqlir: join condition movie.mid = movie.year joins tables already joined"},
	} {
		jp, err := movieCatalog().Path(tc.root, tc.conds...)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s %v: %v, %v; want %q", tc.root, tc.conds, jp, err, tc.want)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "joins tables already joined") {
			t.Errorf("a foreign key joined twice: panic %v", r)
		}
	}()
	movieCatalog().Root(1).JoinFK(0, 0)
}

// The intern stays within its constant however many catalogs stream
// through it, and a catalog is at most MaxTables wide.
func TestCatalogBounds(t *testing.T) {
	catalog := func(i int) *Catalog {
		return InternCatalog([]CatalogTable{{Name: fmt.Sprintf("bound%d", i), Columns: []string{"id"}}}, nil)
	}
	first := catalog(0)
	for i := 1; i < maxCatalogs+10; i++ {
		catalog(i)
		catalogs.Lock()
		n := len(catalogs.m)
		catalogs.Unlock()
		if n > maxCatalogs {
			t.Fatalf("after %d catalogs the intern holds %d, cap %d", i+1, n, maxCatalogs)
		}
	}
	if again := catalog(0); again == first || !again.Same(first) {
		t.Error("the first catalog is still interned after the intern filled, or its shape changed")
	}

	wide := func(n int) []CatalogTable {
		out := make([]CatalogTable, n)
		for i := range out {
			out[i] = CatalogTable{Name: fmt.Sprintf("t%02d", i), Columns: []string{"id"}}
		}
		return out
	}
	if c := InternCatalog(wide(MaxTables), nil); c.NumTables() != MaxTables || c.Root(MaxTables-1).Set().Len() != 1 {
		t.Errorf("a %d-table catalog: %d tables", MaxTables, c.NumTables())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "limit of 64") {
			t.Errorf("a 65-table catalog: panic %v, want one naming the limit", r)
		}
	}()
	InternCatalog(wide(MaxTables+1), nil)
}

// Concurrent requests share the intern: goroutines interning one
// declaration, while distinct ones stream through the intern and make it
// clear, always get a catalog of that shape, and whatever one catalog
// derives is built once and seen by every goroutine that holds it.
func TestCatalogInternIsShared(t *testing.T) {
	var mu sync.Mutex
	derived := map[*Catalog]any{}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				InternCatalog([]CatalogTable{{Name: fmt.Sprintf("shared%d_%d", w, i), Columns: []string{"id"}}}, nil)
				c := movieCatalog()
				d := c.Derived(func(*Catalog) any { return new(int) })
				mu.Lock()
				if prev, ok := derived[c]; ok && prev != d {
					t.Errorf("goroutine %d: a catalog derived twice", w)
				}
				derived[c] = d
				mu.Unlock()
				if !c.Same(movieCatalog()) || len(c.ForeignKeys()) != 2 {
					t.Errorf("goroutine %d got another shape", w)
				}
			}
		}()
	}
	wg.Wait()

	// A path and a column taken before the intern clears are accepted by
	// the catalog of their shape interned after it, and number alike.
	before, ref := mustPath("actor", on("starring.aid", "actor.aid")), col("actor.name")
	for i := range maxCatalogs {
		InternCatalog([]CatalogTable{{Name: fmt.Sprintf("clear%d", i), Columns: []string{"id"}}}, nil)
	}
	after := movieCatalog()
	if after == before.Catalog() || !after.Same(before.Catalog()) {
		t.Fatal("the intern did not clear, or the shape changed")
	}
	jp, err := after.Path("actor", before.Written(before.Edges()[0]))
	if err != nil || jp.Catalog() != after || !slices.Equal(jp.Tables(), before.Tables()) || jp.String() != before.String() {
		t.Errorf("a path over the earlier catalog: %v, %v", jp, err)
	}
	if again := after.MustCol("actor", "name"); again == ref || again.Table() != ref.Table() || again.Column() != ref.Column() {
		t.Errorf("actor.name is %d.%d after the clear, %d.%d before", again.Table(), again.Column(), ref.Table(), ref.Column())
	}
}

// otherShape is a catalog with a movie table that movieCatalog's paths
// cannot take a column from.
func otherShape() *Catalog {
	return InternCatalog([]CatalogTable{{Name: "movie", Columns: []string{"mid"}}}, nil)
}
