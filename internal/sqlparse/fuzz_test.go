package sqlparse

import (
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// FuzzParse: Parse never panics, a statement it accepts has a join path that
// is a tree grown one FROM table per edge, and its rendering parses back to
// the same canonical query. Run it with
// `go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 60s ./internal/sqlparse/`.
func FuzzParse(f *testing.F) {
	for _, sql := range roundTripSQL {
		f.Add(sql)
	}
	for _, c := range parseErrorCases {
		f.Add(c.sql)
	}
	for _, c := range badJoinEdges {
		f.Add(c.sql)
	}
	schema := movieSchema()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(schema, sql)
		if err != nil {
			return
		}
		if !grows(q.From) {
			t.Fatalf("%q: join path %v is not grown one FROM table per edge", sql, q.From)
		}
		if err := roundTrip(schema, q); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	})
}

// grows reports whether every edge of jp joins the table it introduces, not
// joined before, to one that is, and every table is joined: the shape
// sqlir.JoinPath promises.
func grows(jp *sqlir.JoinPath) bool {
	tables, edges := jp.Tables(), jp.Edges()
	if len(tables) != len(edges)+1 {
		return false
	}
	joined := sqlir.TableSet(0).With(tables[0])
	for i, e := range edges {
		if !joined.Has(e.Joined.Table()) || joined.Has(e.New.Table()) || tables[i+1] != e.New.Table() {
			return false
		}
		joined = joined.With(e.New.Table())
	}
	return joined == jp.Set()
}
