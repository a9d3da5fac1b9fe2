// Package tsq implements the table sketch query (Definitions 2.3 and 2.4):
// the PBE-like half of Duoquest's dual specification. A TSQ carries optional
// column type annotations, optional example tuples whose cells may be exact,
// empty, or ranges, a sorted flag, and a top-k limit. Satisfaction is
// decided row by row (Matcher), so it can be asked while a result streams.
package tsq

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
)

// CellKind discriminates example tuple cells (Table 2).
type CellKind uint8

const (
	// CellEmpty matches any value.
	CellEmpty CellKind = iota
	// CellExact matches only the identical value.
	CellExact
	// CellRange matches numeric values within [Lo, Hi].
	CellRange
)

// Cell is one cell of an example tuple.
type Cell struct {
	Kind   CellKind
	Val    sqlir.Value // exact value
	Lo, Hi sqlir.Value // inclusive numeric range bounds
}

// Empty returns a cell matching any value.
func Empty() Cell { return Cell{Kind: CellEmpty} }

// Exact returns a cell matching exactly v.
func Exact(v sqlir.Value) Cell { return Cell{Kind: CellExact, Val: v} }

// Range returns a cell matching numbers within [lo, hi].
func Range(lo, hi float64) Cell {
	return Cell{Kind: CellRange, Lo: sqlir.NewNumber(lo), Hi: sqlir.NewNumber(hi)}
}

// Matches reports whether a result cell satisfies this example cell. It
// takes the cell by pointer: a matcher asks it per cell per row, and a Cell
// is three Values wide.
func (c *Cell) Matches(v sqlir.Value) bool {
	switch c.Kind {
	case CellEmpty:
		return true
	case CellExact:
		if c.Val.Kind == sqlir.KindText && v.Kind == sqlir.KindText {
			// Text matching is case-insensitive, mirroring the
			// autocomplete interface's behaviour.
			return strings.EqualFold(c.Val.Text, v.Text)
		}
		return c.Val.Equal(v)
	case CellRange:
		if v.Kind != sqlir.KindNumber {
			return false
		}
		return v.Num >= c.Lo.Num && v.Num <= c.Hi.Num
	default:
		return false
	}
}

// disjoint reports whether no value matches both c and o (Matches): an
// empty cell meets everything, EqualFold-equal texts and Equal numbers meet,
// a number meets a range that holds it, two ranges meet where they overlap,
// and every other pair of exact cells, or of an exact cell and a range, is
// apart. RowsDecide asks it of no range with a NaN bound.
func (c *Cell) disjoint(o *Cell) bool {
	if c.Kind == CellRange && o.Kind == CellExact {
		c, o = o, c
	}
	switch {
	case c.Kind == CellExact && o.Kind == CellExact:
		if c.Val.Kind == sqlir.KindText && o.Val.Kind == sqlir.KindText {
			return !strings.EqualFold(c.Val.Text, o.Val.Text)
		}
		return !c.Val.Equal(o.Val)
	case c.Kind == CellExact && o.Kind == CellRange:
		return !o.Matches(c.Val)
	case c.Kind == CellRange && o.Kind == CellRange:
		return c.Hi.Num < o.Lo.Num || o.Hi.Num < c.Lo.Num
	default:
		return false
	}
}

// Type returns the type implied by the cell, or TypeUnknown for empty cells.
func (c Cell) Type() sqlir.Type {
	switch c.Kind {
	case CellExact:
		return c.Val.Type()
	case CellRange:
		return sqlir.TypeNumber
	default:
		return sqlir.TypeUnknown
	}
}

// String renders the cell for display.
func (c Cell) String() string {
	switch c.Kind {
	case CellEmpty:
		return "_"
	case CellExact:
		return c.Val.Display()
	case CellRange:
		return "[" + c.Lo.Display() + "," + c.Hi.Display() + "]"
	default:
		return "?"
	}
}

// Tuple is one example tuple.
type Tuple []Cell

// String renders the tuple.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, c := range t {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TSQ is a table sketch query T = (α, χ, τ, k).
type TSQ struct {
	// Types is the optional list of column type annotations α; nil means
	// unannotated.
	Types []sqlir.Type
	// Tuples is the optional list of example tuples χ.
	Tuples []Tuple
	// Sorted is the sorting flag τ.
	Sorted bool
	// Limit is k; 0 indicates no limit.
	Limit int
}

// Width returns the number of columns the TSQ constrains, or 0 when it
// constrains none.
func (t *TSQ) Width() int {
	if len(t.Types) > 0 {
		return len(t.Types)
	}
	if len(t.Tuples) > 0 {
		return len(t.Tuples[0])
	}
	return 0
}

// Validate checks internal consistency: uniform tuple widths, tuple widths
// agreeing with annotations, well-formed ranges, and cells whose implied
// type is consistent with the annotation.
func (t *TSQ) Validate() error {
	w := t.Width()
	for i, tp := range t.Tuples {
		if len(tp) != w {
			return fmt.Errorf("tsq: tuple %d has %d cells, want %d", i, len(tp), w)
		}
		for j, c := range tp {
			if c.Kind == CellRange {
				if c.Lo.Kind != sqlir.KindNumber || c.Hi.Kind != sqlir.KindNumber {
					return fmt.Errorf("tsq: tuple %d cell %d: range bounds must be numeric", i, j)
				}
				if c.Lo.Num > c.Hi.Num {
					return fmt.Errorf("tsq: tuple %d cell %d: empty range [%v,%v]", i, j, c.Lo, c.Hi)
				}
			}
			if len(t.Types) > 0 {
				ct := c.Type()
				if ct != sqlir.TypeUnknown && t.Types[j] != sqlir.TypeUnknown && ct != t.Types[j] {
					return fmt.Errorf("tsq: tuple %d cell %d: %s cell under %s annotation", i, j, ct, t.Types[j])
				}
			}
		}
	}
	if t.Limit < 0 {
		return fmt.Errorf("tsq: negative limit %d", t.Limit)
	}
	if t.Limit > 0 && len(t.Tuples) > t.Limit {
		return fmt.Errorf("tsq: %d example tuples cannot fit in limit %d", len(t.Tuples), t.Limit)
	}
	return nil
}

// String renders the sketch.
func (t *TSQ) String() string {
	var b strings.Builder
	b.WriteString("TSQ{")
	if len(t.Types) > 0 {
		names := make([]string, len(t.Types))
		for i, ty := range t.Types {
			names[i] = ty.String()
		}
		b.WriteString("types=[" + strings.Join(names, ",") + "] ")
	}
	for i, tp := range t.Tuples {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(tp.String())
	}
	fmt.Fprintf(&b, " sorted=%v limit=%d}", t.Sorted, t.Limit)
	return b.String()
}

// Satisfies implements Definition 2.4 against a materialized result:
//
//  1. column types match the annotations (if α present);
//  2. each example tuple is satisfied by a distinct result tuple;
//  3. if sorted, the satisfying tuples appear in the example order;
//  4. if k > 0, the result has at most k rows.
//
// The result's column count must equal the TSQ width when the TSQ
// constrains columns at all. It is the Matcher fed the result's rows in
// order; sqlexec.JoinCache.AskCtx asks the same Matcher without building
// the result.
func (t *TSQ) Satisfies(res *sqlexec.Result) bool {
	return res != nil && res.Ask(t.Matcher())
}

// tupleMatchesRow checks every cell.
func tupleMatchesRow(tp Tuple, row []sqlir.Value) bool {
	if len(tp) != len(row) {
		return false
	}
	for i := range tp {
		if !tp[i].Matches(row[i]) {
			return false
		}
	}
	return true
}

// Matcher decides Definition 2.4 for one result whose rows arrive one at a
// time, in result order, keeping O(|tuples|²) state however many rows pass
// — the sqlexec.Question by-order verification asks on the stream. Build
// one per result with TSQ.Matcher.
//
// The result is a bag (a list when sorted): "a distinct result tuple" is a
// distinct occurrence, so two equal rows can satisfy two equal example
// tuples. That is why the question is asked of every row occurrence the
// query yields, and deduplicated only by the query's own DISTINCT — under
// bag semantics (Zhou et al.) an occurrence count is part of the answer.
//
//   - Sorted: a pointer to the first example tuple not yet matched advances
//     on the first row that matches it. Greedy earliest match is exact for
//     subsequence matching.
//   - Unsorted: a maximum matching of example tuples onto the rows seen so
//     far, grown by one augmenting-path search per row that matches some
//     tuple. A tuple records at most |tuples| candidate rows: by Hall's
//     condition a tuple with that many candidates can always be matched
//     last, whatever the other tuples take, so later candidates cannot
//     change whether a perfect matching exists.
//   - Limit: a row past k makes the answer false.
type Matcher struct {
	t       *TSQ
	rows    int  // rows offered
	settled bool // no later row can change the answer
	answer  bool // valid once settled

	next int // sorted: example tuples matched in order so far

	// unsorted: the matching over the rows kept as some tuple's candidate
	matched int
	cands   []int   // per tuple, candidate rows recorded (at most len(tuples))
	owner   []int   // per tuple, the kept row it is matched to, or -1
	adj     [][]int // per kept row, the tuples it is a recorded candidate of, cut from lists
	lists   []int   // the store adj's lists are cut from
	visit   []int   // per tuple, the search that last reached it
	search  int
}

// Matcher returns a fresh matcher for one result.
func (t *TSQ) Matcher() *Matcher {
	m := &Matcher{}
	m.Reset(t)
	return m
}

// Reset makes m a fresh matcher of t's for one result in the memory m
// already has, so a caller asking many questions need not build a matcher
// for each. At most |tuples|² candidates are ever recorded, so what m
// keeps is bounded by the sketches it has matched.
func (m *Matcher) Reset(t *TSQ) {
	clear(m.adj) // the lists point into earlier stores
	*m = Matcher{t: t, cands: m.cands[:0], owner: m.owner[:0], adj: m.adj[:0], lists: m.lists[:0], visit: m.visit[:0]}
	if !t.Sorted {
		n := len(t.Tuples)
		for range n {
			m.cands, m.owner, m.visit = append(m.cands, 0), append(m.owner, -1), append(m.visit, 0)
		}
	}
}

func (m *Matcher) settle(answer bool) bool {
	m.settled, m.answer = true, answer
	return true
}

// done reports that every example tuple is matched.
func (m *Matcher) done() bool {
	if m.t.Sorted {
		return m.next == len(m.t.Tuples)
	}
	return m.matched == len(m.t.Tuples)
}

// ColumnsMatch reports whether a result with these column types can
// satisfy the sketch: its width is the sketch's, when the sketch constrains
// columns, and every annotated column has the annotated type.
func (t *TSQ) ColumnsMatch(types []sqlir.Type) bool {
	if w := t.Width(); w > 0 && len(types) != w {
		return false
	}
	for i, ty := range t.Types {
		if ty != sqlir.TypeUnknown && types[i] != ty {
			return false
		}
	}
	return true
}

// Columns checks the result's width and column types against the sketch
// (ColumnsMatch). It reports whether the answer is settled before any row:
// false on a mismatch, true when the sketch has neither tuples nor a limit.
func (m *Matcher) Columns(types []sqlir.Type) (settled bool) {
	t := m.t
	if !t.ColumnsMatch(types) {
		return m.settle(false)
	}
	if t.Limit == 0 && m.done() {
		return m.settle(true)
	}
	return false
}

// Relevant reports whether some example tuple matches the row: a row for
// which it is false only counts toward the limit, wherever it comes.
func (m *Matcher) Relevant(row []sqlir.Value) bool {
	for _, tp := range m.t.Tuples {
		if tupleMatchesRow(tp, row) {
			return true
		}
	}
	return false
}

// Row takes the result's next row and reports whether the answer is
// settled. The matcher keeps nothing of row.
func (m *Matcher) Row(row []sqlir.Value) (settled bool) {
	if m.settled {
		return true
	}
	t := m.t
	m.rows++
	if t.Limit > 0 && m.rows > t.Limit {
		return m.settle(false)
	}
	switch {
	case m.done():
	case t.Sorted:
		if tupleMatchesRow(t.Tuples[m.next], row) {
			m.next++
		}
	default:
		m.add(row)
	}
	if t.Limit == 0 && m.done() {
		return m.settle(true)
	}
	return false
}

// add records the row as a candidate of every matching tuple that still
// wants candidates, then searches for an augmenting path from it. The
// matching was maximum without the row, so any augmenting path now ends at
// the row, and one search finds it if it exists.
func (m *Matcher) add(row []sqlir.Value) {
	n := len(m.t.Tuples)
	from := len(m.lists)
	for i, tp := range m.t.Tuples {
		if m.cands[i] < n && tupleMatchesRow(tp, row) {
			m.lists = append(m.lists, i)
		}
	}
	if len(m.lists) == from {
		return
	}
	// A list never changes once cut, so one cut from a store that later
	// grows into a new array stays valid.
	ts := m.lists[from:len(m.lists):len(m.lists)]
	for _, i := range ts {
		m.cands[i]++
	}
	m.adj = append(m.adj, ts)
	m.search++
	if m.augment(len(m.adj) - 1) {
		m.matched++
	}
}

// augment looks for an alternating path from kept row r to an unmatched
// tuple and, finding one, flips it.
func (m *Matcher) augment(r int) bool {
	for _, i := range m.adj[r] {
		if m.visit[i] == m.search {
			continue
		}
		m.visit[i] = m.search
		if m.owner[i] < 0 || m.augment(m.owner[i]) {
			m.owner[i] = r
			return true
		}
	}
	return false
}

// Answer is the answer for a result of rows rows whose rows have been
// offered up to the point the answer settled, and whose rows that Relevant
// accepts have all been offered, in order.
func (m *Matcher) Answer(rows int) bool {
	if m.settled {
		return m.answer
	}
	if m.t.Limit > 0 && rows > m.t.Limit {
		return false
	}
	return m.done()
}

// RowsDecide reports whether matching each example tuple on its own decides
// Definition 2.4 for a result whose columns pass ColumnsMatch: whether such
// a result satisfies the sketch as soon as every example tuple matches some
// row of it. That holds when
//
//   - the sketch is unsorted, has no limit and has at least one tuple, so
//     only rule 2, the distinct matching, is left to decide;
//   - every tuple is Width cells wide (a tuple of another width matches no
//     row), has a non-empty cell, and has no range with a NaN bound (such a
//     range matches nothing, yet a by-row question's bounds, col >= lo AND
//     col <= hi, hold of every number); and
//   - every two tuples are separated: in some column both cells are
//     non-empty and no value matches both (Cell.disjoint).
//
// No row can then match two tuples, so the rows that match each tuple are
// disjoint non-empty sets: any one row per tuple is a distinct matching
// (Hall's condition holds). Two equal tuples are never separated — under
// bag semantics each needs its own row occurrence — and are left to a
// Matcher. The answer depends on the sketch alone; a caller that asks it
// per result computes it once.
func (t *TSQ) RowsDecide() bool {
	if t.Sorted || t.Limit != 0 || len(t.Tuples) == 0 {
		return false
	}
	w := t.Width()
	for i, tp := range t.Tuples {
		if len(tp) != w || !slices.ContainsFunc(tp, func(c Cell) bool { return c.Kind != CellEmpty }) ||
			slices.ContainsFunc(tp, func(c Cell) bool {
				return c.Kind == CellRange && (math.IsNaN(c.Lo.Num) || math.IsNaN(c.Hi.Num))
			}) {
			return false
		}
		for _, earlier := range t.Tuples[:i] {
			if !separated(tp, earlier) {
				return false
			}
		}
	}
	return true
}

// separated reports whether no row can match both tuples: some column's
// cells are disjoint.
func separated(a, b Tuple) bool {
	for i := range min(len(a), len(b)) {
		if a[i].disjoint(&b[i]) {
			return true
		}
	}
	return false
}
