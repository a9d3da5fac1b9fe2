// Package pbe implements the SQuID-style programming-by-example baseline
// used throughout the paper's evaluation (§5.1.1): an open-world,
// no-schema-knowledge system that consumes example tuples alone and abduces
// a project-join query together with candidate selection "filters" the user
// can check or uncheck — including derived count filters ("authors with at
// least N papers"), SQuID's semantic-property abduction.
//
// Its documented limitations (§5.4.2) are modelled faithfully: no projected
// numeric columns or aggregate values, no negation or LIKE predicates, and
// no ordering or row limits.
package pbe

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/duoquest/duoquest/internal/schemagraph"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// FilterKind discriminates abduced filters.
type FilterKind uint8

const (
	// FilterValue is an equality filter col = v common to all examples.
	FilterValue FilterKind = iota
	// FilterRange is a numeric range filter lo <= col <= hi.
	FilterRange
	// FilterCount is a derived semantic-property filter: the number of
	// joined rows per entity (COUNT(*) >= n).
	FilterCount
)

// Filter is one abduced candidate selection predicate.
type Filter struct {
	Kind   FilterKind
	Col    sqlir.ColumnRef // * for FilterCount
	Val    sqlir.Value     // FilterValue
	Lo, Hi sqlir.Value     // FilterRange / FilterCount bounds
}

// String renders the filter for display.
func (f Filter) String() string {
	switch f.Kind {
	case FilterValue:
		return f.Col.String() + " = " + f.Val.String()
	case FilterRange:
		return f.Col.String() + " in [" + f.Lo.Display() + "," + f.Hi.Display() + "]"
	case FilterCount:
		return "COUNT(rows) >= " + f.Lo.Display()
	default:
		return "?"
	}
}

// Output is the system's single response (§5.4.1: PBE returns one set of
// projected columns with multiple candidate selection predicates at a single
// point in time).
type Output struct {
	Projections []sqlir.ColumnRef
	JoinPath    *sqlir.JoinPath
	Filters     []Filter
	// Unsupported is set when the examples cannot be expressed (e.g.
	// numeric example cells, no covering columns).
	Unsupported bool
	Reason      string
}

// The abduction search's bounds, as in the evaluation.
const (
	// maxMappings caps the projection-mapping combinations explored.
	maxMappings = 200
	// maxDomain is the largest distinct-value count for a text column to
	// be used as a filter source (SQuID's "concept" columns).
	maxDomain = 120
)

// System is a PBE baseline bound to one database.
type System struct {
	db    *storage.Database
	graph *schemagraph.Graph
}

// New builds a PBE system for a database.
func New(db *storage.Database) *System {
	return &System{db: db, graph: schemagraph.New(db.Schema)}
}

// Synthesize abduces a project-join query plus filters from example tuples.
func (s *System) Synthesize(examples []tsq.Tuple) (*Output, error) {
	if len(examples) == 0 {
		return &Output{Unsupported: true, Reason: "no examples"}, nil
	}
	width := len(examples[0])
	for _, ex := range examples {
		if len(ex) != width {
			return nil, fmt.Errorf("pbe: ragged example tuples")
		}
		for _, c := range ex {
			switch c.Kind {
			case tsq.CellExact:
				if c.Val.Kind != sqlir.KindText {
					return &Output{Unsupported: true,
						Reason: "numeric example cells are not supported"}, nil
				}
			case tsq.CellRange:
				return &Output{Unsupported: true,
					Reason: "range example cells are not supported"}, nil
			case tsq.CellEmpty:
				return &Output{Unsupported: true,
					Reason: "partial tuples require full example values"}, nil
			}
		}
	}

	// Step 1: per-column candidate projections — text columns covering
	// every example value in that position.
	cands := make([][]sqlir.ColumnRef, width)
	for j := 0; j < width; j++ {
		for _, col := range s.db.Schema.TextColumns() {
			if s.columnCovers(col, examples, j) {
				cands[j] = append(cands[j], col)
			}
		}
		if len(cands[j]) == 0 {
			return &Output{Unsupported: true,
				Reason: fmt.Sprintf("no column covers example column %d", j)}, nil
		}
	}

	// Step 2: try mappings in deterministic order, preferring shorter join
	// paths; first fully verified mapping wins.
	mappings := cartesian(cands, maxMappings)
	type scored struct {
		mapping []sqlir.ColumnRef
		path    *sqlir.JoinPath
	}
	var viable []scored
	for _, mapping := range mappings {
		paths, err := s.graph.JoinPathsForDepth(tableSet(mapping), 0, 8)
		if err != nil {
			continue
		}
		if len(paths) == 0 {
			continue
		}
		viable = append(viable, scored{mapping: mapping, path: paths[0]})
	}
	sort.SliceStable(viable, func(i, j int) bool {
		return viable[i].path.Len() < viable[j].path.Len()
	})

	for _, v := range viable {
		ok, err := s.verifyMapping(v.mapping, v.path, examples)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		filters, err := s.abduceFilters(v.mapping, v.path, examples)
		if err != nil {
			return nil, err
		}
		return &Output{Projections: v.mapping, JoinPath: v.path, Filters: filters}, nil
	}
	return &Output{Unsupported: true, Reason: "no join path satisfies all examples"}, nil
}

// columnCovers reports whether every example's j-th value occurs in col,
// ignoring case. The column's dictionary holds exactly the strings some row
// of this table holds (only referenced, non-NULL strings are interned, and a
// snapshot's dictionary is clamped at publication), so it is asked instead
// of the rows.
func (s *System) columnCovers(col sqlir.ColumnRef, examples []tsq.Tuple, j int) bool {
	dict := s.db.Schema.TableAt(col.Table()).VectorAt(col.Column()).Dict()
	if dict == nil {
		return false
	}
	for _, ex := range examples {
		want := ex[j].Val.Text
		if !slices.ContainsFunc(dict.Strings(), func(have string) bool { return strings.EqualFold(have, want) }) {
			return false
		}
	}
	return true
}

// examplePreds builds the equality predicates binding one example tuple to a
// mapping.
func examplePreds(mapping []sqlir.ColumnRef, ex tsq.Tuple) []sqlir.Predicate {
	var preds []sqlir.Predicate
	for j, col := range mapping {
		preds = append(preds, sqlir.Predicate{
			Col: col, ColSet: true,
			Op: sqlir.OpEq, OpSet: true,
			Val: ex[j].Val, ValSet: true,
		})
	}
	return preds
}

// verifyMapping checks every example has a joined row under the mapping.
func (s *System) verifyMapping(mapping []sqlir.ColumnRef, path *sqlir.JoinPath, examples []tsq.Tuple) (bool, error) {
	for _, ex := range examples {
		ok, err := sqlexec.Exists(s.db, sqlexec.ExistsQuery{
			From:  path,
			Conj:  sqlir.LogicAnd,
			Preds: examplePreds(mapping, ex),
		})
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// branchPaths returns, by catalog ordinal, for each table outside the base
// path reachable within depth FK hops of it, a minimal join path reaching
// it: the base plus the connecting edge chain (nil for every other table).
// Each branch is joined independently so unrelated 1:N branches never
// multiply, and entities missing one relation are only dropped from that
// branch.
func (s *System) branchPaths(base *sqlir.JoinPath, depth int) []*sqlir.JoinPath {
	cat := base.Catalog()
	out := make([]*sqlir.JoinPath, cat.NumTables())
	type node struct {
		table int
		path  *sqlir.JoinPath
	}
	var frontier []node
	for _, t := range base.Tables() {
		frontier = append(frontier, node{table: t, path: base})
	}
	visited := base.Set()
	for level := 0; level < depth; level++ {
		var next []node
		for _, n := range frontier {
			for id, fk := range cat.ForeignKeys() {
				var newTable int
				if fk.From.Table() == n.table && !visited.Has(fk.To.Table()) {
					newTable = fk.To.Table()
				} else if fk.To.Table() == n.table && !visited.Has(fk.From.Table()) {
					newTable = fk.From.Table()
				} else {
					continue
				}
				visited = visited.With(newTable)
				out[newTable] = n.path.JoinFK(id)
				next = append(next, node{table: newTable, path: out[newTable]})
			}
		}
		frontier = next
	}
	return out
}

// abduceFilters proposes candidate selection predicates: properties shared
// by every example's matching rows, over the base join path and each
// related-entity branch (SQuID's derived semantic properties).
func (s *System) abduceFilters(mapping []sqlir.ColumnRef, base *sqlir.JoinPath, examples []tsq.Tuple) ([]Filter, error) {
	mapped := map[sqlir.ColumnRef]bool{}
	for _, c := range mapping {
		mapped[c] = true
	}
	var filters []Filter
	branches := s.branchPaths(base, 3)

	abduceTable := func(ord int, path *sqlir.JoinPath) error {
		t := s.db.Schema.TableAt(ord)
		for ci, c := range t.Columns {
			ref := s.db.Schema.Catalog().Column(ord, ci)
			if mapped[ref] || c.Name == t.PrimaryKey {
				continue
			}
			if c.Type == sqlir.TypeText {
				if t.VectorAt(ci).Dict().Size() > maxDomain {
					continue
				}
				common, err := s.commonValues(ref, mapping, path, examples)
				if err != nil {
					return err
				}
				for _, v := range common {
					filters = append(filters, Filter{Kind: FilterValue, Col: ref, Val: v})
				}
			} else {
				lo, hi, ok, err := s.numericEnvelope(ref, mapping, path, examples)
				if err != nil {
					return err
				}
				if ok {
					filters = append(filters, Filter{Kind: FilterRange, Col: ref, Lo: lo, Hi: hi})
				}
			}
		}
		return nil
	}

	// Deterministic order: the base's tables, then each branch by table
	// ordinal, which is the order of table names.
	for _, t := range base.Tables() {
		if err := abduceTable(t, base); err != nil {
			return nil, err
		}
	}
	for t, path := range branches {
		if path == nil {
			continue
		}
		if err := abduceTable(t, path); err != nil {
			return nil, err
		}
	}

	// Derived count filters: per branch, the number of joined rows matching
	// each example ("authors with at least N papers").
	for _, path := range branches {
		if path == nil {
			continue
		}
		minCount := -1
		for _, ex := range examples {
			n, err := s.matchCount(mapping, path, ex)
			if err != nil {
				return nil, err
			}
			if minCount < 0 || n < minCount {
				minCount = n
			}
		}
		if minCount >= 1 {
			filters = append(filters, Filter{
				Kind: FilterCount,
				Col:  sqlir.Star,
				Lo:   sqlir.NewInt(minCount),
				Hi:   sqlir.NewInt(minCount),
			})
		}
	}
	return filters, nil
}

// matchedRows executes SELECT <col> FROM path WHERE mapping=example.
func (s *System) matchedValues(col sqlir.ColumnRef, mapping []sqlir.ColumnRef, path *sqlir.JoinPath, ex tsq.Tuple) ([]sqlir.Value, error) {
	q := sqlir.NewQuery()
	q.KWSet = true
	q.LimitSet = true
	q.SelectCountSet = true
	q.Select = []sqlir.SelectItem{{Agg: sqlir.AggNone, AggSet: true, Col: col, ColSet: true}}
	q.From = path
	q.WhereState = sqlir.ClausePresent
	q.Where = sqlir.Where{Conj: sqlir.LogicAnd, ConjSet: true, CountSet: true, Preds: examplePreds(mapping, ex)}
	res, err := sqlexec.Execute(s.db, q)
	if err != nil {
		return nil, err
	}
	var out []sqlir.Value
	for _, r := range res.Rows {
		out = append(out, r[0])
	}
	return out, nil
}

// commonValues intersects, across examples, the value sets of col among
// matching rows.
func (s *System) commonValues(col sqlir.ColumnRef, mapping []sqlir.ColumnRef, path *sqlir.JoinPath, examples []tsq.Tuple) ([]sqlir.Value, error) {
	var common map[string]sqlir.Value
	for _, ex := range examples {
		vals, err := s.matchedValues(col, mapping, path, ex)
		if err != nil {
			return nil, err
		}
		set := map[string]sqlir.Value{}
		for _, v := range vals {
			if !v.IsNull() {
				set[v.String()] = v
			}
		}
		if common == nil {
			common = set
			continue
		}
		for k := range common {
			if _, ok := set[k]; !ok {
				delete(common, k)
			}
		}
	}
	keys := make([]string, 0, len(common))
	for k := range common {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sqlir.Value, 0, len(keys))
	for _, k := range keys {
		out = append(out, common[k])
	}
	return out, nil
}

// numericEnvelope returns the [max of minima, min of maxima] band that every
// example's matching rows intersect; ok=false if some example has no
// numeric values.
func (s *System) numericEnvelope(col sqlir.ColumnRef, mapping []sqlir.ColumnRef, path *sqlir.JoinPath, examples []tsq.Tuple) (lo, hi sqlir.Value, ok bool, err error) {
	first := true
	var bandLo, bandHi float64
	for _, ex := range examples {
		vals, verr := s.matchedValues(col, mapping, path, ex)
		if verr != nil {
			return sqlir.Null(), sqlir.Null(), false, verr
		}
		exLo, exHi := 0.0, 0.0
		seen := false
		for _, v := range vals {
			if v.Kind != sqlir.KindNumber {
				continue
			}
			if !seen {
				exLo, exHi = v.Num, v.Num
				seen = true
			} else {
				if v.Num < exLo {
					exLo = v.Num
				}
				if v.Num > exHi {
					exHi = v.Num
				}
			}
		}
		if !seen {
			return sqlir.Null(), sqlir.Null(), false, nil
		}
		if first {
			bandLo, bandHi = exLo, exHi
			first = false
		} else {
			if exLo > bandLo {
				bandLo = exLo
			}
			if exHi < bandHi {
				bandHi = exHi
			}
		}
	}
	if first || bandLo > bandHi {
		return sqlir.Null(), sqlir.Null(), false, nil
	}
	return sqlir.NewNumber(bandLo), sqlir.NewNumber(bandHi), true, nil
}

// matchCount counts joined rows matching one example.
func (s *System) matchCount(mapping []sqlir.ColumnRef, path *sqlir.JoinPath, ex tsq.Tuple) (int, error) {
	vals, err := s.matchedValues(mapping[0], mapping, path, ex)
	if err != nil {
		return 0, err
	}
	return len(vals), nil
}

// cartesian enumerates mapping combinations, capped.
func cartesian(cands [][]sqlir.ColumnRef, cap int) [][]sqlir.ColumnRef {
	out := [][]sqlir.ColumnRef{{}}
	for _, col := range cands {
		var next [][]sqlir.ColumnRef
		for _, prefix := range out {
			for _, c := range col {
				dup := false
				for _, p := range prefix {
					if p == c {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				ext := append(append([]sqlir.ColumnRef{}, prefix...), c)
				next = append(next, ext)
				if len(next) >= cap {
					break
				}
			}
			if len(next) >= cap {
				break
			}
		}
		out = next
	}
	return out
}

// tableSet returns the tables of cols.
func tableSet(cols []sqlir.ColumnRef) sqlir.TableSet {
	var set sqlir.TableSet
	for _, c := range cols {
		set = set.With(c.Table())
	}
	return set
}

// Supports reports whether a gold query is expressible by this PBE system
// at all (§5.4.2): no projected aggregates or numeric columns, no negation
// or LIKE, no ordering, no row limit.
func Supports(gold *sqlir.Query) (bool, string) {
	for _, s := range gold.Select {
		if s.Agg != sqlir.AggNone {
			return false, "projected aggregate"
		}
		if s.Col.Type() != sqlir.TypeText {
			return false, "projected numeric column"
		}
	}
	for _, p := range gold.Where.Preds {
		if p.Op == sqlir.OpNe {
			return false, "negation predicate"
		}
		if p.Op == sqlir.OpLike {
			return false, "LIKE predicate"
		}
	}
	if gold.OrderByState == sqlir.ClausePresent {
		return false, "ordered results"
	}
	if gold.LimitSet && gold.Limit > 0 {
		return false, "row limit"
	}
	return true, ""
}

// Correct labels an output against the gold query per §5.4.2: the gold
// selection predicates must be a subset of the produced candidate filters,
// ignoring differences in literal values, and the projections must match.
func (o *Output) Correct(gold *sqlir.Query) bool {
	if o.Unsupported {
		return false
	}
	if len(gold.Select) != len(o.Projections) {
		return false
	}
	for i, s := range gold.Select {
		if s.Agg != sqlir.AggNone || s.Col != o.Projections[i] {
			return false
		}
	}
	covered := func(col sqlir.ColumnRef, rangy bool) bool {
		for _, f := range o.Filters {
			if f.Kind == FilterCount {
				continue
			}
			if f.Col != col {
				continue
			}
			if rangy && f.Kind == FilterRange {
				return true
			}
			if !rangy && f.Kind == FilterValue {
				return true
			}
		}
		return false
	}
	for _, p := range gold.Where.Preds {
		rangy := p.Op.Ordering()
		if !covered(p.Col, rangy) {
			return false
		}
	}
	if gold.HavingState == sqlir.ClausePresent {
		if gold.Having.Agg != sqlir.AggCount {
			return false
		}
		found := false
		for _, f := range o.Filters {
			if f.Kind == FilterCount {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}
