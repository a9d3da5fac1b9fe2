// Package schemagraph models the database schema as a graph whose nodes are
// tables and whose edges are foreign key → primary key relationships, and
// implements the paper's progressive join path construction (Algorithm 2):
// a Steiner tree over the tables referenced by a partial query, plus
// one-level foreign-key expansions to cover queries whose FROM clause uses
// more tables than are referenced elsewhere (Example 3.2).
package schemagraph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// The bounds on what the process keeps of join path construction:
// constants, not options. A full table is cleared before its next insert.
// DESIGN.md §7 states the worst-case bytes.
const (
	maxCatalogs = 64 // graphs interned at once
	// memoBudget caps one graph's memo in path tables: one per entry plus
	// the summed length of its paths. An answer larger than the whole
	// budget is not kept.
	memoBudget = 4096
)

// catalogs interns one Graph per catalog (catalogKey).
var catalogs struct {
	sync.Mutex
	graphs map[string]*Graph
}

// Graph is the schema join graph. All edge weights are 1, as in the paper
// (weights could also be derived from a query log [2]). It holds table names
// and ForeignKey values only, never a Table or the Schema, so an interned
// graph pins no epoch.
type Graph struct {
	nodes []string       // sorted table names
	index map[string]int // table -> node id
	edges []edge         // all FK edges (undirected for connectivity)
	adj   [][]int        // node -> incident edge ids

	// memo holds ConstructJoinPaths' answers by referenced-table set (its
	// node ids in ascending order): every request over the catalog shares
	// the graph, a search asks once per state that reaches FROM, and most
	// states reference the same few sets. A hit takes the read lock and
	// allocates nothing. cost is the memo's size in path tables, at most
	// memoBudget.
	mu   sync.RWMutex
	memo map[string]constructed
	cost int
}

type constructed struct {
	paths []*sqlir.JoinPath
	err   error
}

// edge is one FK-PK relationship between two nodes.
type edge struct {
	a, b int // node ids: a = FK side, b = PK side
	fk   storage.ForeignKey
}

// New returns the join graph of the schema's catalog: its table names in
// schema order and its foreign keys. Every schema with one catalog (a
// database, each of its frozen epochs, every request over either) gets the
// same *Graph.
func New(schema *storage.Schema) *Graph {
	var buf [1024]byte
	key := catalogKey(buf[:0], schema)
	catalogs.Lock()
	defer catalogs.Unlock()
	if g := catalogs.graphs[string(key)]; g != nil {
		return g
	}
	if catalogs.graphs == nil || len(catalogs.graphs) >= maxCatalogs {
		catalogs.graphs = map[string]*Graph{}
	}
	g := build(schema)
	catalogs.graphs[string(key)] = g
	return g
}

// catalogKey appends the schema's catalog to dst: the table count, the
// table names, then each foreign key's four names, every name
// length-prefixed.
func catalogKey(dst []byte, schema *storage.Schema) []byte {
	str := func(s string) {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(schema.Tables)))
	for _, t := range schema.Tables {
		str(t.Name)
	}
	for _, fk := range schema.ForeignKeys {
		str(fk.Table)
		str(fk.Column)
		str(fk.RefTable)
		str(fk.RefColumn)
	}
	return dst
}

// build constructs the join graph for a schema.
func build(schema *storage.Schema) *Graph {
	g := &Graph{index: map[string]int{}}
	for _, t := range schema.Tables {
		g.nodes = append(g.nodes, t.Name)
	}
	sort.Strings(g.nodes)
	for i, n := range g.nodes {
		g.index[n] = i
	}
	g.adj = make([][]int, len(g.nodes))
	for _, fk := range schema.ForeignKeys {
		a, okA := g.index[fk.Table]
		b, okB := g.index[fk.RefTable]
		if !okA || !okB {
			continue
		}
		id := len(g.edges)
		g.edges = append(g.edges, edge{a: a, b: b, fk: fk})
		g.adj[a] = append(g.adj[a], id)
		if b != a {
			g.adj[b] = append(g.adj[b], id)
		}
	}
	return g
}

// NumTables returns the node count.
func (g *Graph) NumTables() int { return len(g.nodes) }

// NumEdges returns the FK edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// joinEdge converts an FK edge to the IR representation.
func (e edge) joinEdge() sqlir.JoinEdge {
	return sqlir.JoinEdge{
		FromTable:  e.fk.Table,
		FromColumn: e.fk.Column,
		ToTable:    e.fk.RefTable,
		ToColumn:   e.fk.RefColumn,
	}
}

// Steiner returns minimum-node connected subtrees spanning the terminal
// tables (unit edge weights make tree cost = node count - 1). All minimal
// node sets are returned, each as one spanning tree. The search is exact
// for schemas up to exactLimit tables and falls back to a shortest-path
// merge heuristic beyond that.
func (g *Graph) Steiner(terminals []string) ([]*sqlir.JoinPath, error) {
	const exactLimit = 18
	term, err := g.terminalIDs(terminals)
	if err != nil {
		return nil, err
	}
	if len(term) == 0 {
		return nil, fmt.Errorf("schemagraph: no terminals")
	}
	if len(term) == 1 {
		return []*sqlir.JoinPath{{Tables: []string{g.nodes[term[0]]}}}, nil
	}
	if len(g.nodes) <= exactLimit {
		return g.steinerExact(term)
	}
	jp, err := g.steinerHeuristic(term)
	if err != nil {
		return nil, err
	}
	return []*sqlir.JoinPath{jp}, nil
}

func (g *Graph) terminalIDs(terminals []string) ([]int, error) {
	seen := map[int]bool{}
	var ids []int
	for _, t := range terminals {
		id, ok := g.index[t]
		if !ok {
			return nil, fmt.Errorf("schemagraph: unknown table %q", t)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// steinerExact enumerates node supersets of the terminals in increasing
// size and returns a spanning tree for every minimal connected superset.
func (g *Graph) steinerExact(term []int) ([]*sqlir.JoinPath, error) {
	n := len(g.nodes)
	termMask := 0
	for _, t := range term {
		termMask |= 1 << t
	}
	var optional []int
	for i := 0; i < n; i++ {
		if termMask&(1<<i) == 0 {
			optional = append(optional, i)
		}
	}
	// Enumerate optional-node subsets grouped by size.
	var found []signedPath
	for extra := 0; extra <= len(optional); extra++ {
		masks := combinations(len(optional), extra)
		for _, m := range masks {
			mask := termMask
			for i, opt := range optional {
				if m&(1<<i) != 0 {
					mask |= 1 << opt
				}
			}
			if tree, ok := g.spanningTree(mask); ok {
				found = append(found, signedPath{tree, pathSignature(tree)})
			}
		}
		if len(found) > 0 {
			break // minimal size reached; all same-size trees collected
		}
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("schemagraph: terminals not connected: %v", names(g, term))
	}
	return sortPaths(found), nil
}

// combinations returns all bitmasks over n items with k bits set, in
// deterministic lexicographic order. n is bounded by exactLimit.
func combinations(n, k int) []int {
	if k == 0 {
		return []int{0}
	}
	if k > n {
		return nil
	}
	var out []int
	for m := 0; m < 1<<n; m++ {
		if bits.OnesCount(uint(m)) == k {
			out = append(out, m)
		}
	}
	return out
}

// spanningTree builds a deterministic spanning tree over the node set mask,
// returning false if the induced subgraph is disconnected.
func (g *Graph) spanningTree(mask int) (*sqlir.JoinPath, bool) {
	var nodesIn []int
	for i := 0; i < len(g.nodes); i++ {
		if mask&(1<<i) != 0 {
			nodesIn = append(nodesIn, i)
		}
	}
	if len(nodesIn) == 0 {
		return nil, false
	}
	start := nodesIn[0]
	visited := map[int]bool{start: true}
	jp := &sqlir.JoinPath{Tables: []string{g.nodes[start]}}
	frontier := []int{start}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, eid := range g.adj[v] {
			e := g.edges[eid]
			w := e.a
			if w == v {
				w = e.b
			}
			if mask&(1<<w) == 0 || visited[w] {
				continue
			}
			visited[w] = true
			jp.Tables = append(jp.Tables, g.nodes[w])
			jp.Edges = append(jp.Edges, e.joinEdge())
			frontier = append(frontier, w)
		}
	}
	if len(jp.Tables) != len(nodesIn) {
		return nil, false
	}
	return jp, true
}

// steinerHeuristic merges shortest paths from each terminal into a growing
// component (the classical 2-approximation), used for very large schemas.
func (g *Graph) steinerHeuristic(term []int) (*sqlir.JoinPath, error) {
	inTree := map[int]bool{term[0]: true}
	jp := &sqlir.JoinPath{Tables: []string{g.nodes[term[0]]}}
	for _, t := range term[1:] {
		if inTree[t] {
			continue
		}
		// BFS from t to the current tree.
		prev := map[int]int{t: -1}
		prevEdge := map[int]int{}
		queue := []int{t}
		reached := -1
		for len(queue) > 0 && reached < 0 {
			v := queue[0]
			queue = queue[1:]
			for _, eid := range g.adj[v] {
				e := g.edges[eid]
				w := e.a
				if w == v {
					w = e.b
				}
				if _, seen := prev[w]; seen {
					continue
				}
				prev[w] = v
				prevEdge[w] = eid
				if inTree[w] {
					reached = w
					break
				}
				queue = append(queue, w)
			}
		}
		if reached < 0 {
			return nil, fmt.Errorf("schemagraph: terminal %s not connected", g.nodes[t])
		}
		// Walk back from the tree to t, adding nodes and edges.
		for v := reached; prev[v] != -1; v = prev[v] {
			u := prev[v] // u is one step closer to t
			if !inTree[u] {
				inTree[u] = true
				jp.Tables = append(jp.Tables, g.nodes[u])
			}
			jp.Edges = append(jp.Edges, g.edges[prevEdge[v]].joinEdge())
		}
	}
	return normalizePath(g, jp)
}

// ConstructJoinPaths implements Algorithm 2 for a partial query: candidate
// join paths covering the tables referenced by its decided columns, plus
// one-level FK-PK expansions (Lines 10–12). The answer is a function of the
// referenced table set alone (Steiner sorts its terminals, and the paths
// come in one total order), so it is memoized by that set, and every
// request over the catalog shares it. Callers must not modify the returned
// paths.
func (g *Graph) ConstructJoinPaths(q *sqlir.Query) ([]*sqlir.JoinPath, error) {
	var tb [8]string
	tables := q.AppendReferencedTables(tb[:0])
	var kb [16]byte
	key, ok := g.setKey(kb[:0], tables)
	if !ok {
		return g.JoinPathsFor(tables) // an unknown table: an error, not kept
	}
	g.mu.RLock()
	c, hit := g.memo[string(key)]
	g.mu.RUnlock()
	if !hit {
		c.paths, c.err = g.JoinPathsFor(tables)
		c = g.keep(key, c)
	}
	return c.paths, c.err
}

// setKey appends the memo key of a list of distinct tables to dst: their
// node ids in ascending order. It reports false when a table is not in the
// graph.
func (g *Graph) setKey(dst []byte, tables []string) ([]byte, bool) {
	var ib [8]int
	ids := ib[:0]
	for _, t := range tables {
		id, ok := g.index[t]
		if !ok {
			return dst, false
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst, true
}

// keep memoizes an answer and returns the one the memo holds for its key: a
// caller that raced another to the same miss gets the first answer, so
// every caller shares one set of paths. A memo that c would push past
// memoBudget is cleared first.
func (g *Graph) keep(key []byte, c constructed) constructed {
	cost := 1
	for _, jp := range c.paths {
		cost += jp.Len()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.memo[string(key)]; ok {
		return prev
	}
	if cost > memoBudget {
		return c
	}
	if g.memo == nil || g.cost+cost > memoBudget {
		g.memo, g.cost = map[string]constructed{}, 0
	}
	g.memo[string(key)] = c
	g.cost += cost
	return c
}

// JoinPathsFor returns candidate join paths for an explicit table set. With
// no tables, every table in the database is a candidate single-table path
// (Line 6: e.g. SELECT COUNT(*)). Expansion depth follows Algorithm 2's
// recursive AddJoin with a default depth of 3, which covers FROM clauses
// reaching an entity three FK hops beyond the projected tables (e.g.
// author→writes→publication→conference).
func (g *Graph) JoinPathsFor(tables []string) ([]*sqlir.JoinPath, error) {
	return g.JoinPathsForDepth(tables, 3, 96)
}

// JoinPathsForDepth is JoinPathsFor with explicit expansion depth and a cap
// on the number of returned paths.
func (g *Graph) JoinPathsForDepth(tables []string, depth, maxPaths int) ([]*sqlir.JoinPath, error) {
	if len(tables) == 0 {
		out := make([]*sqlir.JoinPath, len(g.nodes))
		for i, n := range g.nodes {
			out[i] = &sqlir.JoinPath{Tables: []string{n}}
		}
		return out, nil
	}
	base, err := g.Steiner(tables)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []signedPath
	add := func(jp *sqlir.JoinPath) bool {
		sig := pathSignature(jp)
		if seen[sig] {
			return false
		}
		seen[sig] = true
		out = append(out, signedPath{jp, sig})
		return true
	}
	// Every loop stops at the cap: no answer holds more than maxPaths paths.
	for _, jp := range base {
		if len(out) >= maxPaths {
			break
		}
		add(jp)
	}
	// Levels of expansion: add any FK edge from a path table to a table
	// outside the path (AddJoin in Algorithm 2, applied recursively).
	frontier := base
expand:
	for level := 0; level < depth && len(out) < maxPaths; level++ {
		var next []*sqlir.JoinPath
		for _, jp := range frontier {
			inPath := map[string]bool{}
			for _, t := range jp.Tables {
				inPath[t] = true
			}
			for _, e := range g.edges {
				ta, tb := g.nodes[e.a], g.nodes[e.b]
				var newTable string
				switch {
				case inPath[ta] && !inPath[tb]:
					newTable = tb
				case inPath[tb] && !inPath[ta]:
					newTable = ta
				default:
					continue
				}
				ext := &sqlir.JoinPath{
					Tables: append(append([]string{}, jp.Tables...), newTable),
					Edges:  append(append([]sqlir.JoinEdge{}, jp.Edges...), e.joinEdge()),
				}
				if add(ext) {
					next = append(next, ext)
					if len(out) >= maxPaths {
						break expand
					}
				}
			}
		}
		frontier = next
	}
	return sortPaths(out), nil
}

// normalizePath re-orders a path's edges so each edge attaches a new table
// (the executor's requirement), verifying connectivity.
func normalizePath(g *Graph, jp *sqlir.JoinPath) (*sqlir.JoinPath, error) {
	if len(jp.Tables) == 0 {
		return nil, fmt.Errorf("schemagraph: empty path")
	}
	out := &sqlir.JoinPath{Tables: []string{jp.Tables[0]}}
	inPath := map[string]bool{jp.Tables[0]: true}
	remaining := append([]sqlir.JoinEdge{}, jp.Edges...)
	for len(remaining) > 0 {
		progressed := false
		for i, e := range remaining {
			var nt string
			switch {
			case inPath[e.FromTable] && !inPath[e.ToTable]:
				nt = e.ToTable
			case inPath[e.ToTable] && !inPath[e.FromTable]:
				nt = e.FromTable
			case inPath[e.FromTable] && inPath[e.ToTable]:
				// Redundant edge (cycle); drop it.
				remaining = append(remaining[:i], remaining[i+1:]...)
				progressed = true
			default:
				continue
			}
			if nt != "" {
				inPath[nt] = true
				out.Tables = append(out.Tables, nt)
				out.Edges = append(out.Edges, e)
				remaining = append(remaining[:i], remaining[i+1:]...)
				progressed = true
			}
			break
		}
		if !progressed {
			return nil, fmt.Errorf("schemagraph: disconnected path")
		}
	}
	return out, nil
}

// pathSignature canonically identifies a path by its table and edge sets.
func pathSignature(jp *sqlir.JoinPath) string {
	tables := append([]string{}, jp.Tables...)
	sort.Strings(tables)
	edges := make([]string, len(jp.Edges))
	for i, e := range jp.Edges {
		a := e.FromTable + "." + e.FromColumn
		b := e.ToTable + "." + e.ToColumn
		if a > b {
			a, b = b, a
		}
		edges[i] = a + "=" + b
	}
	sort.Strings(edges)
	return strings.Join(tables, ",") + "|" + strings.Join(edges, "&")
}

// signedPath is a path with its signature, built once.
type signedPath struct {
	jp  *sqlir.JoinPath
	sig string
}

// sortPaths orders paths by length then signature — the §3.3.4 tiebreaker
// (shorter join paths first) with a deterministic total order — and returns
// the paths.
func sortPaths(ps []signedPath) []*sqlir.JoinPath {
	slices.SortFunc(ps, func(a, b signedPath) int {
		if c := cmp.Compare(a.jp.Len(), b.jp.Len()); c != 0 {
			return c
		}
		return strings.Compare(a.sig, b.sig)
	})
	out := make([]*sqlir.JoinPath, len(ps))
	for i, p := range ps {
		out[i] = p.jp
	}
	return out
}

func names(g *Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}
