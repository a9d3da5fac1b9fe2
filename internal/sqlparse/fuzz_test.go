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

// grows reports whether every edge of jp joins one of its tables not joined
// before to the tables that are, and every table is joined: the shape
// sqlir.JoinPath promises.
func grows(jp *sqlir.JoinPath) bool {
	joined := map[string]bool{jp.Tables[0]: true}
	for _, e := range jp.Edges {
		if joined[e.FromTable] == joined[e.ToTable] {
			return false
		}
		next := e.FromTable
		if joined[next] {
			next = e.ToTable
		}
		if !jp.Contains(next) {
			return false
		}
		joined[next] = true
	}
	return len(joined) == len(jp.Tables)
}
