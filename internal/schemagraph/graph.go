// Package schemagraph models the database schema as a graph whose nodes are
// tables and whose edges are foreign key → primary key relationships, and
// implements the paper's progressive join path construction (Algorithm 2):
// a Steiner tree over the tables referenced by a partial query, plus
// one-level foreign-key expansions to cover queries whose FROM clause uses
// more tables than are referenced elsewhere (Example 3.2).
package schemagraph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// memoBudget caps one graph's memo in path tables: one per entry plus the
// summed length of its paths. An answer larger than the whole budget is not
// kept, and a full memo is cleared before its next insert: a constant, not
// an option. DESIGN.md §7 states the worst-case bytes.
const memoBudget = 4096

// Graph is the schema join graph over one catalog's table ordinals. All
// edge weights are 1, as in the paper (weights could also be derived from a
// query log [2]). Its edges are the catalog's foreign keys. It holds the
// catalog only, never a Table or the Schema, so it pins no epoch.
type Graph struct {
	cat *sqlir.Catalog
	adj [][]int // node -> incident foreign keys (the catalog's indexes)

	// memo holds ConstructJoinPaths' answers by referenced-table set: every
	// request over the catalog shares the graph, a search asks once per
	// state that reaches FROM, and most states reference the same few sets.
	// A hit takes the read lock and allocates nothing. cost is the memo's
	// size in path tables, at most memoBudget.
	mu   sync.RWMutex
	memo map[sqlir.TableSet]constructed
	cost int
}

type constructed struct {
	paths []*sqlir.JoinPath
	err   error
}

// New returns the join graph of the schema's catalog. The graph is derived
// once per interned catalog, so every schema with one catalog (a database,
// each of its frozen epochs, every request over either) gets the same
// *Graph.
func New(schema *storage.Schema) *Graph {
	return schema.Catalog().Derived(func(c *sqlir.Catalog) any { return build(c) }).(*Graph)
}

// build constructs the join graph of a catalog.
func build(cat *sqlir.Catalog) *Graph {
	g := &Graph{cat: cat, adj: make([][]int, cat.NumTables())}
	for id, fk := range cat.ForeignKeys() {
		a, b := fk.From.Table(), fk.To.Table()
		g.adj[a] = append(g.adj[a], id)
		if b != a {
			g.adj[b] = append(g.adj[b], id)
		}
	}
	return g
}

// other returns the node foreign key fk joins to v.
func (g *Graph) other(fk, v int) int {
	k := g.cat.ForeignKeys()[fk]
	if k.From.Table() == v {
		return k.To.Table()
	}
	return k.From.Table()
}

// steiner returns minimum-node connected subtrees spanning the terminal
// tables (unit edge weights make tree cost = node count - 1). All minimal
// node sets are returned, each as one spanning tree. The search is exact
// for schemas up to exactLimit tables and falls back to a shortest-path
// merge heuristic beyond that.
func (g *Graph) steiner(term sqlir.TableSet) ([]*sqlir.JoinPath, error) {
	const exactLimit = 18
	switch {
	case term == 0:
		return nil, fmt.Errorf("schemagraph: no terminals")
	case g.cat.NumTables() <= exactLimit:
		return g.steinerExact(term)
	}
	return g.steinerHeuristic(term)
}

// steinerExact enumerates node supersets of the terminals in increasing
// size and returns a spanning tree for every minimal connected superset.
func (g *Graph) steinerExact(term sqlir.TableSet) ([]*sqlir.JoinPath, error) {
	var optional []int
	for i := range g.cat.NumTables() {
		if !term.Has(i) {
			optional = append(optional, i)
		}
	}
	// Enumerate optional-node subsets grouped by size.
	var found []signedPath
	for extra := 0; extra <= len(optional); extra++ {
		masks := combinations(len(optional), extra)
		for _, m := range masks {
			mask := term
			for i, opt := range optional {
				if m&(1<<i) != 0 {
					mask = mask.With(opt)
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
		names := make([]string, 0, term.Len())
		for _, t := range term.Ordinals() {
			names = append(names, g.cat.Name(t))
		}
		return nil, fmt.Errorf("schemagraph: terminals not connected: %v", names)
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

// spanningTree builds a deterministic spanning tree over the node set mask
// — breadth first from its lowest node, each node's foreign keys in
// catalog order — returning false if the induced subgraph is disconnected.
func (g *Graph) spanningTree(mask sqlir.TableSet) (*sqlir.JoinPath, bool) {
	start := bits.TrailingZeros64(uint64(mask))
	visited := sqlir.TableSet(0).With(start)
	var fks []int
	frontier := []int{start}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, fk := range g.adj[v] {
			w := g.other(fk, v)
			if !mask.Has(w) || visited.Has(w) {
				continue
			}
			visited = visited.With(w)
			fks = append(fks, fk)
			frontier = append(frontier, w)
		}
	}
	if visited != mask {
		return nil, false
	}
	return g.cat.Root(start).JoinFK(fks...), true
}

// steinerHeuristic merges shortest paths from each terminal into a growing
// component (the classical 2-approximation), used for very large schemas.
func (g *Graph) steinerHeuristic(term sqlir.TableSet) ([]*sqlir.JoinPath, error) {
	ts := term.Ordinals()
	inTree := sqlir.TableSet(0).With(ts[0])
	var fks []int
	for _, t := range ts[1:] {
		if inTree.Has(t) {
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
			for _, fk := range g.adj[v] {
				w := g.other(fk, v)
				if _, seen := prev[w]; seen {
					continue
				}
				prev[w] = v
				prevEdge[w] = fk
				if inTree.Has(w) {
					reached = w
					break
				}
				queue = append(queue, w)
			}
		}
		if reached < 0 {
			return nil, fmt.Errorf("schemagraph: terminal %s not connected", g.cat.Name(t))
		}
		// Walk back from the tree to t: each edge joins the tree to the
		// next node towards t, which no tree node precedes.
		for v := reached; prev[v] != -1; v = prev[v] {
			inTree = inTree.With(prev[v])
			fks = append(fks, prevEdge[v])
		}
	}
	return []*sqlir.JoinPath{g.cat.Root(ts[0]).JoinFK(fks...)}, nil
}

// ConstructJoinPaths implements Algorithm 2 for a partial query: candidate
// join paths covering the tables referenced by its decided columns, plus
// one-level FK-PK expansions (Lines 10–12). The answer is a function of the
// referenced table set alone (Steiner works on the set, and the paths come
// in one total order), so it is memoized by that set, and every request
// over the catalog shares it. Callers must not modify the returned paths.
func (g *Graph) ConstructJoinPaths(q *sqlir.Query) ([]*sqlir.JoinPath, error) {
	set := q.ReferencedTables()
	g.mu.RLock()
	c, hit := g.memo[set]
	g.mu.RUnlock()
	if !hit {
		c.paths, c.err = g.JoinPathsFor(set)
		c = g.keep(set, c)
	}
	return c.paths, c.err
}

// keep memoizes an answer and returns the one the memo holds for its set: a
// caller that raced another to the same miss gets the first answer, so
// every caller shares one set of paths. A memo that c would push past
// memoBudget is cleared first.
func (g *Graph) keep(set sqlir.TableSet, c constructed) constructed {
	cost := 1
	for _, jp := range c.paths {
		cost += jp.Len()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.memo[set]; ok {
		return prev
	}
	if cost > memoBudget {
		return c
	}
	if g.memo == nil || g.cost+cost > memoBudget {
		g.memo, g.cost = map[sqlir.TableSet]constructed{}, 0
	}
	g.memo[set] = c
	g.cost += cost
	return c
}

// Algorithm 2's recursive AddJoin runs to defaultDepth, which covers FROM
// clauses reaching an entity three FK hops beyond the projected tables
// (e.g. author→writes→publication→conference), and an answer holds at most
// defaultMaxPaths paths.
const (
	defaultDepth    = 3
	defaultMaxPaths = 96
)

// JoinPathsFor returns candidate join paths for an explicit table set. With
// no tables, every table in the database is a candidate single-table path
// (Line 6: e.g. SELECT COUNT(*)).
func (g *Graph) JoinPathsFor(tables sqlir.TableSet) ([]*sqlir.JoinPath, error) {
	return g.JoinPathsForDepth(tables, defaultDepth, defaultMaxPaths)
}

// JoinPathsForDepth is JoinPathsFor with explicit expansion depth and a cap
// on the number of returned paths.
func (g *Graph) JoinPathsForDepth(set sqlir.TableSet, depth, maxPaths int) ([]*sqlir.JoinPath, error) {
	if set == 0 {
		out := make([]*sqlir.JoinPath, g.cat.NumTables())
		for i := range out {
			out[i] = g.cat.Root(i)
		}
		return out, nil
	}
	base, err := g.steiner(set)
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
			in := jp.Set()
			for id, fk := range g.cat.ForeignKeys() {
				if in.Has(fk.From.Table()) == in.Has(fk.To.Table()) {
					continue
				}
				if ext := jp.JoinFK(id); add(ext) {
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

// pathSignature canonically identifies a path by its table and edge sets.
func pathSignature(jp *sqlir.JoinPath) string {
	tables, edges := jp.Sets()
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
