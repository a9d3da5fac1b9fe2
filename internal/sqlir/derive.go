package sqlir

import "slices"

// Copy-on-write derivation. A partial query is immutable once built: GPQE
// derives each child from its parent by applying one Decision, which copies
// the Query header plus at most the one slice the decision writes (Select,
// Where.Preds or GroupBy) or the one clause (Having or OrderBy), and shares
// everything else — From and the untouched slices and clauses — with the
// parent. Nothing reachable from a derived query may be written afterwards;
// emitted candidates, the search frontier and verification workers all hold
// these pointers concurrently.
//
// apply is the one place that knows how a decision writes a query. It has
// two callers: Query.Apply builds an immutable child on the heap, and
// Scratch.Apply builds the same child in a reusable buffer for a look that
// ends before the next one begins.

// DecisionKind names the slot a decision fills: one per guidance module
// (Table 3), plus join path construction and the GROUP BY that SQL
// semantics dictates.
type DecisionKind uint8

// Decision kinds, in module execution order (§3.3.1).
const (
	DecideKeywords     DecisionKind = iota + 1 // Where, GroupBy, OrderBy
	DecideSelectCount                          // Count
	DecideSelectColumn                         // Index, Col
	DecideSelectAgg                            // Index, Agg
	DecideFrom                                 // From
	DecideWhereCount                           // Count
	DecideWhereConj                            // Conj
	DecidePredColumn                           // Index, Col
	DecidePredOp                               // Index, Op
	DecidePredValue                            // Index, Val
	DecideGroupBy                              // no argument: the unaggregated projections
	DecideHaving                               // Present, and with it Agg, Col
	DecideHavingOp                             // Op
	DecideHavingValue                          // Val
	DecideOrderKey                             // Agg, Col
	DecideOrderDir                             // Desc, Count (the LIMIT, 0 = none)
)

// Decision is the one step separating a derived query from its parent: the
// kind and the class chosen for it, in the fields the kind's comment names.
// Column and value classes are held by pointer — a decision is queued by
// value for every surviving child of the search, and is small — and what
// they point at must never be written again. The zero Decision means
// "unknown": nothing may be assumed about what a query shares with any
// other, and it cannot be applied.
type Decision struct {
	Kind DecisionKind
	Agg  AggFunc
	Op   Op
	Conj LogicalOp
	// Keywords: which optional clauses the query has.
	Where, GroupBy, OrderBy bool
	Present                 bool // Having: the clause exists
	Desc                    bool // OrderDir: descending

	Index int32 // the projection or predicate slot written
	Count int32 // how many projections or predicates; or the LIMIT

	Col  *ColumnRef
	Val  *Value
	From *JoinPath // shared, not copied: join paths are never written after construction
}

// Apply returns q with d applied, as a new immutable query.
func (q *Query) Apply(d Decision) *Query {
	c := *q
	c.apply(d, &buffers{})
	return &c
}

// Scratch is a reusable buffer for looking at a child without keeping it:
// the header and the slice or clause a decision writes live in the scratch,
// so building a child there allocates nothing once the buffers have grown.
type Scratch struct {
	q   Query
	buf buffers
}

// Apply builds q with d applied inside the scratch. The result is valid
// until the next Apply on s and must not outlive it: anything that keeps a
// query — a candidate, a queued check, a worker — takes Query.Apply's.
func (s *Scratch) Apply(q *Query, d Decision) *Query {
	s.q = *q
	s.q.apply(d, &s.buf)
	return &s.q
}

// buffers are where a derivation puts the one slice or clause it writes, so
// that the parent's stays untouched: empty ones make it fresh, a scratch's
// are reused from child to child.
type buffers struct {
	sel     []SelectItem
	preds   []Predicate
	groupBy []ColumnRef
	having  *HavingExpr
	orderBy *OrderBy
}

// cloned returns a copy of src held in *buf.
func cloned[T any](buf *[]T, src []T) []T {
	*buf = append((*buf)[:0], src...)
	return *buf
}

// clause returns a copy of v held in *buf.
func clause[T any](buf **T, v T) *T {
	if *buf == nil {
		*buf = new(T)
	}
	**buf = v
	return *buf
}

// blank returns n zero elements held in *buf.
func blank[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

func pendingIf(present bool) ClauseState {
	if present {
		return ClausePending
	}
	return ClauseAbsent
}

// apply writes d into c, a header copy of the parent that still shares the
// parent's slices and clauses; a slice or clause it writes is first copied
// into b.
func (c *Query) apply(d Decision, b *buffers) {
	switch d.Kind {
	case DecideKeywords:
		// LIMIT is decided with the ORDER BY direction, so a query without
		// ORDER BY has its (absent) LIMIT decided here.
		c.KWSet = true
		c.WhereState = pendingIf(d.Where)
		c.GroupByState = pendingIf(d.GroupBy)
		c.OrderByState, c.OrderBy = pendingIf(d.OrderBy), nil
		if !d.OrderBy {
			c.LimitSet = true
		}
	case DecideSelectCount:
		c.Select = blank(&b.sel, int(d.Count))
		c.SelectCountSet = true
	case DecideSelectColumn:
		c.Select = cloned(&b.sel, c.Select)
		c.Select[d.Index].Col, c.Select[d.Index].ColSet = *d.Col, true
	case DecideSelectAgg:
		c.Select = cloned(&b.sel, c.Select)
		c.Select[d.Index].Agg, c.Select[d.Index].AggSet = d.Agg, true
	case DecideFrom:
		c.From = d.From
	case DecideWhereCount:
		c.Where.Preds = blank(&b.preds, int(d.Count))
		c.Where.CountSet = true
		c.WhereState = ClausePresent
	case DecideWhereConj:
		c.Where.Conj, c.Where.ConjSet = d.Conj, true
	case DecidePredColumn:
		c.Where.Preds = cloned(&b.preds, c.Where.Preds)
		c.Where.Preds[d.Index].Col, c.Where.Preds[d.Index].ColSet = *d.Col, true
	case DecidePredOp:
		c.Where.Preds = cloned(&b.preds, c.Where.Preds)
		c.Where.Preds[d.Index].Op, c.Where.Preds[d.Index].OpSet = d.Op, true
	case DecidePredValue:
		c.Where.Preds = cloned(&b.preds, c.Where.Preds)
		c.Where.Preds[d.Index].Val, c.Where.Preds[d.Index].ValSet = *d.Val, true
	case DecideGroupBy:
		// SQL semantics fix the key: every unaggregated projection.
		c.GroupBy = blank(&b.groupBy, len(c.Select))[:0]
		for _, it := range c.Select {
			if it.Unaggregated() {
				c.GroupBy = append(c.GroupBy, it.Col)
			}
		}
		c.GroupByState = ClausePresent
		c.HavingState, c.Having = ClausePending, nil
	case DecideHaving:
		if !d.Present {
			c.HavingState, c.Having = ClauseAbsent, nil
			break
		}
		c.HavingState = ClausePresent
		c.Having = clause(&b.having, HavingExpr{Agg: d.Agg, AggSet: true, Col: *d.Col, ColSet: true})
	case DecideHavingOp:
		c.Having = clause(&b.having, *c.Having)
		c.Having.Op, c.Having.OpSet = d.Op, true
	case DecideHavingValue:
		c.Having = clause(&b.having, *c.Having)
		c.Having.Val, c.Having.ValSet = *d.Val, true
	case DecideOrderKey:
		c.OrderBy = clause(&b.orderBy, OrderBy{Key: OrderKey{Agg: d.Agg, Col: *d.Col}, KeySet: true})
		c.OrderByState = ClausePresent
	case DecideOrderDir:
		c.OrderBy = clause(&b.orderBy, *c.OrderBy)
		c.OrderBy.Desc, c.OrderBy.DirSet = d.Desc, true
		c.Limit, c.LimitSet = int(d.Count), true
	default:
		panic("sqlir: applying a decision of unknown kind")
	}
}
