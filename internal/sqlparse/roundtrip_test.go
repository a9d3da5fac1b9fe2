package sqlparse_test

import (
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/schemagraph"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// Every join path the search can build parses back to itself. For every
// bundled catalog — MAS, movies, the Spider domains and each loadgen
// preset — and every set of at most two tables, each path schemagraph
// returns, printed as a FROM clause and parsed, is the same path: the same
// ordinals, the same orientation and the same text.
func TestJoinPathsRoundTripThroughTheParser(t *testing.T) {
	dbs := []*storage.Database{dataset.MAS(), dataset.Movies()}
	dbs = append(dbs, dataset.SpiderDev().Databases...)
	dbs = append(dbs, dataset.SpiderTest().Databases...)
	for _, preset := range []string{"small", "medium", "large"} {
		spec, _ := loadgen.Preset(preset)
		spec.Rows = 300 // the preset's catalog; its rows are not read
		gen, err := loadgen.Generate(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, gen.DB)
	}
	for _, db := range dbs {
		g := schemagraph.New(db.Schema)
		sets := []sqlir.TableSet{0}
		for a := range db.Schema.Catalog().NumTables() {
			one := sqlir.TableSet(0).With(a)
			sets = append(sets, one)
			for b := a + 1; b < db.Schema.Catalog().NumTables(); b++ {
				sets = append(sets, one.With(b))
			}
		}
		paths := 0
		for _, set := range sets {
			jps, err := g.JoinPathsFor(set)
			if err != nil {
				continue // tables the foreign keys do not connect
			}
			for _, jp := range jps {
				paths++
				sql := "SELECT COUNT(*) FROM " + jp.String()
				q, err := sqlparse.Parse(db.Schema, sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", db.Name, sql, err)
				}
				got := q.From
				if got.Catalog() != jp.Catalog() || !slices.Equal(got.Tables(), jp.Tables()) ||
					!slices.Equal(got.Edges(), jp.Edges()) || got.String() != jp.String() {
					t.Fatalf("%s: %s parsed to %v %v %v, want %v %v", db.Name, sql, got, got.Tables(), got.Edges(), jp.Tables(), jp.Edges())
				}
			}
		}
		if paths == 0 {
			t.Errorf("%s: no join paths", db.Name)
		}
	}
}
