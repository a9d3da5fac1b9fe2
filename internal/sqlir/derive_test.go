package sqlir

import (
	"reflect"
	"testing"
)

// derivable is a query with every clause present, so each derivation has a
// slot to write.
func derivable() *Query {
	q := buildComplete()
	q.Where.Preds = append(q.Where.Preds, q.Where.Preds[0])
	q.HavingState = ClausePresent
	q.Having = HavingExpr{Agg: AggCount, AggSet: true, Col: Star, ColSet: true, Op: OpGt, OpSet: true, Val: NewInt(1), ValSet: true}
	q.OrderByState = ClausePresent
	q.OrderBy = OrderBy{Key: OrderKey{Col: ColumnRef{"movie", "year"}}, KeySet: true, DirSet: true}
	return q
}

// derivations applies every With* method once to q.
func derivations(q *Query) map[string]func() *Query {
	col := ColumnRef{Table: "starring", Column: "sid"}
	from := &JoinPath{Tables: []string{"starring"}}
	return map[string]func() *Query{
		"WithKeywords":     func() *Query { return q.WithKeywords(true, false, true) },
		"WithSelectCount":  func() *Query { return q.WithSelectCount(3) },
		"WithSelectColumn": func() *Query { return q.WithSelectColumn(1, col) },
		"WithSelectAgg":    func() *Query { return q.WithSelectAgg(0, AggMin) },
		"WithFrom":         func() *Query { return q.WithFrom(from) },
		"WithWhereCount":   func() *Query { return q.WithWhereCount(2) },
		"WithWhereConj":    func() *Query { return q.WithWhereConj(LogicOr) },
		"WithPredColumn":   func() *Query { return q.WithPredColumn(0, col) },
		"WithPredOp":       func() *Query { return q.WithPredOp(0, OpLe) },
		"WithPredValue":    func() *Query { return q.WithPredValue(0, NewInt(7)) },
		"WithGroupBy":      func() *Query { return q.WithGroupBy([]ColumnRef{col}) },
		"WithoutHaving":    func() *Query { return q.WithoutHaving() },
		"WithHavingAgg":    func() *Query { return q.WithHavingAgg(AggSum, col) },
		"WithHavingOp":     func() *Query { return q.WithHavingOp(OpNe) },
		"WithHavingValue":  func() *Query { return q.WithHavingValue(NewInt(9)) },
		"WithOrderKey":     func() *Query { return q.WithOrderKey(OrderKey{Agg: AggCount, Col: Star}) },
		"WithOrderDir":     func() *Query { return q.WithOrderDir(true, 5) },
	}
}

// Every derivation changes the child and leaves the parent — which shares
// slices and the join path with it — rendering exactly as before.
func TestDerivationsLeaveParentUntouched(t *testing.T) {
	q, same := derivable(), derivable()
	str, canon := q.String(), q.Canonical()
	for name, derive := range derivations(q) {
		c := derive()
		if reflect.DeepEqual(c, q) {
			t.Errorf("%s: child equals the parent", name)
		}
		if !reflect.DeepEqual(q, same) || q.String() != str || q.Canonical() != canon {
			t.Fatalf("%s wrote through to the parent:\n was %s\n now %s", name, str, q.String())
		}
	}
}

// A derivation costs the query header plus at most the one slice it writes.
func TestDerivationAllocations(t *testing.T) {
	q := derivable()
	for name, derive := range derivations(q) {
		if n := testing.AllocsPerRun(50, func() { derive() }); n > 2 {
			t.Errorf("%s: %.0f allocations, want at most 2 (header + one slice)", name, n)
		}
	}
}
