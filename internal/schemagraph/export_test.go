package schemagraph

import (
	"encoding/binary"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// RefQuery is a partial query whose SELECT references the tables in order.
var RefQuery = refQuery

// Private builds a graph outside the intern, with a memo of its own.
func Private(schema *storage.Schema) *Graph { return build(schema) }

// ForgetCatalogs empties the intern, so the next New of every catalog
// starts a graph with a cold memo.
func ForgetCatalogs() {
	catalogs.Lock()
	catalogs.graphs = nil
	catalogs.Unlock()
}

// EachMemoized calls f with every memoized answer and its table set, in
// node order.
func (g *Graph) EachMemoized(f func(tables []string, paths []*sqlir.JoinPath, err error)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for key, c := range g.memo {
		var tables []string
		for k := []byte(key); len(k) > 0; {
			id, n := binary.Uvarint(k)
			tables = append(tables, g.nodes[id])
			k = k[n:]
		}
		f(tables, c.paths, c.err)
	}
}
