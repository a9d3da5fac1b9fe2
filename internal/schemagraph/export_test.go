package schemagraph

import (
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// RefQuery is a partial query whose SELECT references the catalog's named
// tables in order.
var RefQuery = refQuery

// SetOf is the set of the catalog's named tables.
var SetOf = setOf

// Private builds a graph of the schema's catalog outside the intern, with a
// memo of its own.
func Private(schema *storage.Schema) *Graph { return build(schema.Catalog()) }

// ForgetJoinPaths empties the memo of the schema's graph, so the next
// question over its catalog starts cold.
func ForgetJoinPaths(schema *storage.Schema) {
	g := New(schema)
	g.mu.Lock()
	g.memo, g.cost = nil, 0
	g.mu.Unlock()
}

// EachMemoized calls f with every memoized answer and its table set, in
// ordinal order.
func (g *Graph) EachMemoized(f func(tables []string, paths []*sqlir.JoinPath, err error)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for set, c := range g.memo {
		var tables []string
		for _, t := range set.Ordinals() {
			tables = append(tables, g.cat.Name(t))
		}
		f(tables, c.paths, c.err)
	}
}
