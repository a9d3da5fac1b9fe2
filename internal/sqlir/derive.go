package sqlir

import "slices"

// Copy-on-write derivations. A partial query is immutable once built: GPQE
// derives each child from its parent by one of the methods below, which
// copies the Query header plus at most the one slice the decision writes
// (Select or Where.Preds) and shares everything else — From, GroupBy and
// the untouched slice — with the parent. Nothing reachable from a derived
// query may be written afterwards; emitted candidates, the priority queue
// and verification workers all hold these pointers concurrently.

// DecisionKind names the slot a derivation fills: one per guidance module
// (Table 3), plus join path construction and the GROUP BY that SQL
// semantics dictates.
type DecisionKind uint8

// Decision kinds, in module execution order (§3.3.1).
const (
	DecideKeywords     DecisionKind = iota + 1 // WithKeywords
	DecideSelectCount                          // WithSelectCount
	DecideSelectColumn                         // WithSelectColumn
	DecideSelectAgg                            // WithSelectAgg
	DecideFrom                                 // WithFrom
	DecideWhereCount                           // WithWhereCount
	DecideWhereConj                            // WithWhereConj
	DecidePredColumn                           // WithPredColumn
	DecidePredOp                               // WithPredOp
	DecidePredValue                            // WithPredValue
	DecideGroupBy                              // WithGroupBy
	DecideHaving                               // WithoutHaving, WithHavingAgg
	DecideHavingOp                             // WithHavingOp
	DecideHavingValue                          // WithHavingValue
	DecideOrderKey                             // WithOrderKey
	DecideOrderDir                             // WithOrderDir
)

// Decision identifies the one step separating a derived query from its
// parent: the kind, and for projection and predicate decisions the slot
// index. The zero Decision means "unknown" — nothing may be assumed about
// what the query shares with any other.
type Decision struct {
	Kind  DecisionKind
	Index int
}

// derive copies the header; slices and the join path stay shared.
func (q *Query) derive() *Query {
	c := *q
	return &c
}

func pendingIf(present bool) ClauseState {
	if present {
		return ClausePending
	}
	return ClauseAbsent
}

// WithKeywords decides which optional clauses the query has. LIMIT is
// decided with the ORDER BY direction, so a query without ORDER BY has its
// (absent) LIMIT decided here.
func (q *Query) WithKeywords(where, groupBy, orderBy bool) *Query {
	c := q.derive()
	c.KWSet = true
	c.WhereState = pendingIf(where)
	c.GroupByState = pendingIf(groupBy)
	c.OrderByState = pendingIf(orderBy)
	if !orderBy {
		c.LimitSet = true
	}
	return c
}

// WithSelectCount decides the number of projections.
func (q *Query) WithSelectCount(n int) *Query {
	c := q.derive()
	c.Select = make([]SelectItem, n)
	c.SelectCountSet = true
	return c
}

// deriveSelect derives a copy whose i-th projection may be written.
func (q *Query) deriveSelect(i int) (*Query, *SelectItem) {
	c := q.derive()
	c.Select = slices.Clone(q.Select)
	return c, &c.Select[i]
}

// derivePred derives a copy whose i-th predicate may be written.
func (q *Query) derivePred(i int) (*Query, *Predicate) {
	c := q.derive()
	c.Where.Preds = slices.Clone(q.Where.Preds)
	return c, &c.Where.Preds[i]
}

// WithSelectColumn decides the i-th projected column.
func (q *Query) WithSelectColumn(i int, col ColumnRef) *Query {
	c, s := q.deriveSelect(i)
	s.Col, s.ColSet = col, true
	return c
}

// WithSelectAgg decides the i-th projection's aggregate.
func (q *Query) WithSelectAgg(i int, agg AggFunc) *Query {
	c, s := q.deriveSelect(i)
	s.Agg, s.AggSet = agg, true
	return c
}

// WithFrom decides the join path. The path is shared, not copied: join
// paths are never written after construction.
func (q *Query) WithFrom(jp *JoinPath) *Query {
	c := q.derive()
	c.From = jp
	return c
}

// WithWhereCount decides the number of selection predicates.
func (q *Query) WithWhereCount(n int) *Query {
	c := q.derive()
	c.Where.Preds = make([]Predicate, n)
	c.Where.CountSet = true
	c.WhereState = ClausePresent
	return c
}

// WithWhereConj decides the connective of a multi-predicate WHERE.
func (q *Query) WithWhereConj(op LogicalOp) *Query {
	c := q.derive()
	c.Where.Conj, c.Where.ConjSet = op, true
	return c
}

// WithPredColumn decides the i-th predicate's column.
func (q *Query) WithPredColumn(i int, col ColumnRef) *Query {
	c, p := q.derivePred(i)
	p.Col, p.ColSet = col, true
	return c
}

// WithPredOp decides the i-th predicate's operator.
func (q *Query) WithPredOp(i int, op Op) *Query {
	c, p := q.derivePred(i)
	p.Op, p.OpSet = op, true
	return c
}

// WithPredValue decides the i-th predicate's literal.
func (q *Query) WithPredValue(i int, v Value) *Query {
	c, p := q.derivePred(i)
	p.Val, p.ValSet = v, true
	return c
}

// WithGroupBy fixes the grouping columns and opens the HAVING decision.
// cols becomes part of the query: the caller must not write it afterwards.
func (q *Query) WithGroupBy(cols []ColumnRef) *Query {
	c := q.derive()
	c.GroupBy = cols
	c.GroupByState = ClausePresent
	c.HavingState = ClausePending
	return c
}

// WithoutHaving decides against a HAVING clause.
func (q *Query) WithoutHaving() *Query {
	c := q.derive()
	c.HavingState = ClauseAbsent
	return c
}

// WithHavingAgg decides for a HAVING clause over agg(col).
func (q *Query) WithHavingAgg(agg AggFunc, col ColumnRef) *Query {
	c := q.derive()
	c.HavingState = ClausePresent
	c.Having.Agg, c.Having.AggSet = agg, true
	c.Having.Col, c.Having.ColSet = col, true
	return c
}

// WithHavingOp decides the HAVING comparison operator.
func (q *Query) WithHavingOp(op Op) *Query {
	c := q.derive()
	c.Having.Op, c.Having.OpSet = op, true
	return c
}

// WithHavingValue decides the HAVING literal.
func (q *Query) WithHavingValue(v Value) *Query {
	c := q.derive()
	c.Having.Val, c.Having.ValSet = v, true
	return c
}

// WithOrderKey decides the ORDER BY expression.
func (q *Query) WithOrderKey(k OrderKey) *Query {
	c := q.derive()
	c.OrderBy.Key, c.OrderBy.KeySet = k, true
	c.OrderByState = ClausePresent
	return c
}

// WithOrderDir decides the sort direction and, with it, LIMIT (0 = none).
func (q *Query) WithOrderDir(desc bool, limit int) *Query {
	c := q.derive()
	c.OrderBy.Desc, c.OrderBy.DirSet = desc, true
	c.Limit, c.LimitSet = limit, true
	return c
}
