package schemagraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// chainSchema: a -> b -> c -> d linear chain plus a spur e off b.
func chainSchema() *storage.Schema {
	mk := func(name string) *storage.Table {
		return storage.NewTable(name, "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber},
			storage.Column{Name: "a_id", Type: sqlir.TypeNumber},
			storage.Column{Name: "b_id", Type: sqlir.TypeNumber},
			storage.Column{Name: "c_id", Type: sqlir.TypeNumber},
		)
	}
	s := storage.NewSchema(mk("a"), mk("b"), mk("c"), mk("d"), mk("e"))
	s.AddForeignKey("b", "a_id", "a", "id")
	s.AddForeignKey("c", "b_id", "b", "id")
	s.AddForeignKey("d", "c_id", "c", "id")
	s.AddForeignKey("e", "b_id", "b", "id")
	return s
}

// movieSchema: actor <- starring -> movie.
func movieSchema() *storage.Schema {
	actor := storage.NewTable("actor", "aid",
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
	)
	movie := storage.NewTable("movie", "mid",
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
	)
	starring := storage.NewTable("starring", "sid",
		storage.Column{Name: "sid", Type: sqlir.TypeNumber},
		storage.Column{Name: "aid", Type: sqlir.TypeNumber},
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(actor, movie, starring)
	s.AddForeignKey("starring", "aid", "actor", "aid")
	s.AddForeignKey("starring", "mid", "movie", "mid")
	return s
}

func TestGraphCounts(t *testing.T) {
	g := New(chainSchema())
	if g.NumTables() != 5 || g.NumEdges() != 4 {
		t.Errorf("tables=%d edges=%d", g.NumTables(), g.NumEdges())
	}
}

func TestSteinerSingleTerminal(t *testing.T) {
	g := New(chainSchema())
	paths, err := g.Steiner([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Len() != 1 || paths[0].Tables[0] != "b" {
		t.Errorf("paths = %v", paths)
	}
}

func TestSteinerAdjacent(t *testing.T) {
	g := New(chainSchema())
	paths, err := g.Steiner([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Len() != 2 || len(paths[0].Edges) != 1 {
		t.Fatalf("paths = %v", paths)
	}
}

// The classic Duoquest case: actor and movie connect only through starring,
// which must be added as a Steiner node.
func TestSteinerIntermediateNode(t *testing.T) {
	g := New(movieSchema())
	paths, err := g.Steiner([]string{"actor", "movie"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	jp := paths[0]
	if jp.Len() != 3 || !jp.Contains("starring") {
		t.Errorf("path = %v", jp)
	}
	if len(jp.Edges) != 2 {
		t.Errorf("edges = %v", jp.Edges)
	}
}

func TestSteinerLongChain(t *testing.T) {
	g := New(chainSchema())
	paths, err := g.Steiner([]string{"a", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Len() != 4 {
		t.Fatalf("a-d should span 4 tables: %v", paths)
	}
	if paths[0].Contains("e") {
		t.Error("spur e must not be included")
	}
}

func TestSteinerDisconnected(t *testing.T) {
	s := chainSchema()
	iso := storage.NewTable("island", "id", storage.Column{Name: "id", Type: sqlir.TypeNumber})
	s2 := storage.NewSchema(append(s.Tables, iso)...)
	s2.ForeignKeys = s.ForeignKeys
	g := New(s2)
	if _, err := g.Steiner([]string{"a", "island"}); err == nil {
		t.Error("disconnected terminals should error")
	}
}

func TestSteinerUnknownTable(t *testing.T) {
	g := New(chainSchema())
	if _, err := g.Steiner([]string{"nope"}); err == nil {
		t.Error("unknown terminal should error")
	}
	if _, err := g.Steiner(nil); err == nil {
		t.Error("no terminals should error")
	}
}

// diamondSchema has two equal-length routes between a and d; both minimal
// trees should be returned.
func diamondSchema() *storage.Schema {
	mk := func(name string) *storage.Table {
		return storage.NewTable(name, "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber},
			storage.Column{Name: "a_id", Type: sqlir.TypeNumber},
			storage.Column{Name: "b_id", Type: sqlir.TypeNumber},
			storage.Column{Name: "c_id", Type: sqlir.TypeNumber},
		)
	}
	s := storage.NewSchema(mk("a"), mk("b"), mk("c"), mk("d"))
	s.AddForeignKey("b", "a_id", "a", "id")
	s.AddForeignKey("c", "a_id", "a", "id")
	s.AddForeignKey("d", "b_id", "b", "id")
	s.AddForeignKey("d", "c_id", "c", "id")
	return s
}

func TestSteinerAllMinimalTrees(t *testing.T) {
	g := New(diamondSchema())
	paths, err := g.Steiner([]string{"a", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("want both a-b-d and a-c-d, got %v", paths)
	}
	for _, jp := range paths {
		if jp.Len() != 3 {
			t.Errorf("non-minimal path: %v", jp)
		}
	}
}

func TestJoinPathsForEmptySet(t *testing.T) {
	g := New(movieSchema())
	paths, err := g.JoinPathsFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("every table should be a candidate: %v", paths)
	}
	for _, jp := range paths {
		if jp.Len() != 1 {
			t.Errorf("single-table path expected: %v", jp)
		}
	}
}

// TestJoinPathsExpansion reproduces Example 3.2: SELECT a.name with a
// starring join requires the expansion step.
func TestJoinPathsExpansion(t *testing.T) {
	g := New(movieSchema())
	paths, err := g.JoinPathsFor([]string{"actor"})
	if err != nil {
		t.Fatal(err)
	}
	// Expect: [actor], [actor+starring] (depth 1), and
	// [actor+starring+movie] (depth 2).
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	if paths[0].Len() != 1 || paths[0].Tables[0] != "actor" {
		t.Errorf("first path should be bare actor: %v", paths[0])
	}
	if paths[1].Len() != 2 || !paths[1].Contains("starring") {
		t.Errorf("depth-1 expansion should add starring: %v", paths[1])
	}
	if paths[2].Len() != 3 || !paths[2].Contains("movie") {
		t.Errorf("depth-2 expansion should add movie: %v", paths[2])
	}
	// Depth 1 limits the expansion.
	d1, err := g.JoinPathsForDepth([]string{"actor"}, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 2 {
		t.Errorf("depth-1 paths = %v", d1)
	}
}

func TestJoinPathsSortedByLength(t *testing.T) {
	g := New(chainSchema())
	paths, err := g.JoinPathsFor([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i-1].Len() > paths[i].Len() {
			t.Fatalf("paths not sorted by length: %v", paths)
		}
	}
	// b has 3 incident edges (a-b, b-c, b-e): 1 base + 3 depth-1
	// expansions + 4 depth-2 + 3 depth-3 expansions.
	if len(paths) != 11 {
		t.Errorf("got %d paths: %v", len(paths), paths)
	}
}

func TestJoinPathsDeduped(t *testing.T) {
	g := New(diamondSchema())
	paths, err := g.JoinPathsFor([]string{"a", "d"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, jp := range paths {
		sig := pathSignature(jp)
		if seen[sig] {
			t.Fatalf("duplicate path %v", jp)
		}
		seen[sig] = true
	}
}

func TestConstructJoinPathsFromQuery(t *testing.T) {
	g := New(movieSchema())
	q := sqlir.NewQuery()
	q.Select = []sqlir.SelectItem{
		{Agg: sqlir.AggNone, AggSet: true, Col: sqlir.ColumnRef{Table: "actor", Column: "name"}, ColSet: true},
		{Agg: sqlir.AggNone, AggSet: true, Col: sqlir.ColumnRef{Table: "movie", Column: "title"}, ColSet: true},
	}
	paths, err := g.ConstructJoinPaths(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || !paths[0].Contains("starring") {
		t.Errorf("paths = %v", paths)
	}

	// The answer is memoized per referenced-table set: asking again returns
	// the very same paths, equal to what an unmemoized graph computes, and
	// asking again allocates nothing. A permuted list is the same set, so
	// it hits the same entry, and that entry is what a fresh computation
	// gives for the permuted order.
	again, err := g.ConstructJoinPaths(q)
	if err != nil || len(again) != len(paths) || again[0] != paths[0] {
		t.Errorf("second ask = %v, %v; want the memoized paths", again, err)
	}
	fresh, _ := build(movieSchema()).JoinPathsFor([]string{"actor", "movie"})
	if !reflect.DeepEqual(paths, fresh) {
		t.Errorf("memoized paths %v differ from a fresh computation %v", paths, fresh)
	}
	if n := testing.AllocsPerRun(100, func() { g.ConstructJoinPaths(q) }); n != 0 {
		t.Errorf("a memo hit allocates %.1f times, want 0", n)
	}
	q.Select[0], q.Select[1] = q.Select[1], q.Select[0]
	swapped, _ := g.ConstructJoinPaths(q)
	if len(swapped) != len(paths) || &swapped[0] != &paths[0] {
		t.Errorf("the permuted list got paths %v, not the memo entry %v", swapped, paths)
	}
	fresh, _ = build(movieSchema()).JoinPathsFor([]string{"movie", "actor"})
	if !reflect.DeepEqual(swapped, fresh) {
		t.Errorf("paths for the permuted list %v differ from a fresh computation %v", swapped, fresh)
	}
}

// hubChainSchema has twelve tables: t01..t11 each reference the hub t00
// and the table before them, so t00 reaches 459 join paths within three
// expansions.
func hubChainSchema() *storage.Schema {
	var tables []*storage.Table
	for i := 0; i < 12; i++ {
		tables = append(tables, storage.NewTable(fmt.Sprintf("t%02d", i), "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber},
			storage.Column{Name: "hub", Type: sqlir.TypeNumber},
			storage.Column{Name: "prev", Type: sqlir.TypeNumber},
		))
	}
	s := storage.NewSchema(tables...)
	for i := 1; i < 12; i++ {
		s.AddForeignKey(fmt.Sprintf("t%02d", i), "hub", "t00", "id")
		if i > 1 {
			s.AddForeignKey(fmt.Sprintf("t%02d", i), "prev", fmt.Sprintf("t%02d", i-1), "id")
		}
	}
	return s
}

// JoinPathsForDepth returns at most maxPaths paths: the shared memo's byte
// bound rests on it.
func TestJoinPathsForDepthHoldsTheCap(t *testing.T) {
	g := build(hubChainSchema())
	all, err := g.JoinPathsForDepth([]string{"t00"}, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 459 {
		t.Fatalf("uncapped: %d paths, want 459", len(all))
	}
	for _, maxPaths := range []int{1, 8, 16, 96, 459, 500} {
		paths, err := g.JoinPathsForDepth([]string{"t00"}, 3, maxPaths)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(maxPaths, len(all)); len(paths) != want {
			t.Errorf("maxPaths %d: %d paths, want %d", maxPaths, len(paths), want)
		}
		for i := 1; i < len(paths); i++ {
			if paths[i-1].Len() > paths[i].Len() {
				t.Fatalf("maxPaths %d: paths not sorted by length: %v", maxPaths, paths)
			}
		}
	}
}

// refQuery is a partial query whose SELECT references the tables in order.
func refQuery(tables ...string) *sqlir.Query {
	q := sqlir.NewQuery()
	for _, tb := range tables {
		q.Select = append(q.Select, sqlir.SelectItem{Col: sqlir.ColumnRef{Table: tb, Column: "id"}, ColSet: true})
	}
	return q
}

// The intern and the memo stay within their constants however many
// catalogs and table sets stream through them.
func TestJoinPathBounds(t *testing.T) {
	catalog := func(i int) *storage.Schema {
		return storage.NewSchema(storage.NewTable(fmt.Sprintf("bound%d", i), "id",
			storage.Column{Name: "id", Type: sqlir.TypeNumber}))
	}
	first := New(catalog(0))
	for i := 1; i < maxCatalogs+10; i++ {
		New(catalog(i))
		catalogs.Lock()
		n := len(catalogs.graphs)
		catalogs.Unlock()
		if n > maxCatalogs {
			t.Fatalf("after %d catalogs the intern holds %d, cap %d", i+1, n, maxCatalogs)
		}
	}
	if New(catalog(0)) == first {
		t.Error("the first catalog is still interned after the intern filled")
	}

	g := build(hubChainSchema())
	asked, clears := 0, 0
	for i := 0; i < 12; i++ {
		for j := i; j < 12; j++ {
			for k := j; k < 12; k++ {
				set := []string{fmt.Sprintf("t%02d", i), fmt.Sprintf("t%02d", j), fmt.Sprintf("t%02d", k)}
				before := g.cost
				paths, err := g.ConstructJoinPaths(refQuery(set...))
				if err != nil || len(paths) == 0 {
					t.Fatalf("%v: %v, %v", set, paths, err)
				}
				asked++
				if g.cost < before {
					clears++
				}
				sum := 0
				for _, c := range g.memo {
					sum++
					for _, jp := range c.paths {
						sum += jp.Len()
					}
				}
				if g.cost != sum || g.cost > memoBudget {
					t.Fatalf("memo cost %d (entries sum to %d), budget %d", g.cost, sum, memoBudget)
				}
			}
		}
	}
	if clears == 0 {
		t.Errorf("%d table sets never filled the memo (cost %d, budget %d)", asked, g.cost, memoBudget)
	}
}

// Property: every returned path is executable in order — each edge connects
// a new table to the already-joined prefix.
func TestPropPathsWellOrdered(t *testing.T) {
	for _, schema := range []*storage.Schema{chainSchema(), movieSchema(), diamondSchema()} {
		g := New(schema)
		for _, terms := range [][]string{
			{schema.Tables[0].Name},
			{schema.Tables[0].Name, schema.Tables[len(schema.Tables)-1].Name},
		} {
			paths, err := g.JoinPathsFor(terms)
			if err != nil {
				continue // disconnected combos are fine to skip
			}
			for _, jp := range paths {
				inPath := map[string]bool{jp.Tables[0]: true}
				count := 1
				for _, e := range jp.Edges {
					var nt string
					switch {
					case inPath[e.FromTable] && !inPath[e.ToTable]:
						nt = e.ToTable
					case inPath[e.ToTable] && !inPath[e.FromTable]:
						nt = e.FromTable
					default:
						t.Fatalf("edge %v not incremental in %v", e, jp)
					}
					inPath[nt] = true
					count++
				}
				if count != jp.Len() {
					t.Fatalf("path %v has %d tables but %d joined", jp, jp.Len(), count)
				}
				// Every terminal is spanned.
				for _, term := range terms {
					if !inPath[term] {
						t.Fatalf("path %v missing terminal %s", jp, term)
					}
				}
			}
		}
	}
}

// Property: Steiner trees are minimal — no returned tree is larger than the
// smallest.
func TestPropSteinerMinimal(t *testing.T) {
	g := New(chainSchema())
	paths, err := g.Steiner([]string{"a", "c", "e"})
	if err != nil {
		t.Fatal(err)
	}
	for _, jp := range paths {
		if jp.Len() != paths[0].Len() {
			t.Fatalf("non-uniform minimal trees: %v", paths)
		}
	}
	// a-c-e must route through b: 4 tables.
	if paths[0].Len() != 4 {
		t.Errorf("want 4-table tree, got %v", paths[0])
	}
}

func TestHeuristicPath(t *testing.T) {
	// Force the heuristic by calling it directly on the chain.
	g := New(chainSchema())
	term, err := g.terminalIDs([]string{"a", "d"})
	if err != nil {
		t.Fatal(err)
	}
	jp, err := g.steinerHeuristic(term)
	if err != nil {
		t.Fatal(err)
	}
	if jp.Len() != 4 {
		t.Errorf("heuristic path = %v", jp)
	}
	if !strings.Contains(jp.String(), "JOIN") {
		t.Errorf("path rendering = %q", jp.String())
	}
}

func TestHeuristicDisconnected(t *testing.T) {
	s := chainSchema()
	iso := storage.NewTable("island", "id", storage.Column{Name: "id", Type: sqlir.TypeNumber})
	s2 := storage.NewSchema(append(s.Tables, iso)...)
	s2.ForeignKeys = s.ForeignKeys
	g := New(s2)
	term, _ := g.terminalIDs([]string{"a", "island"})
	if _, err := g.steinerHeuristic(term); err == nil {
		t.Error("heuristic should report disconnection")
	}
}
