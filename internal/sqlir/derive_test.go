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

// derivations is one decision of every kind, each with a slot of derivable()
// to write.
func derivations() map[string]Decision {
	col := ColumnRef{Table: "starring", Column: "sid"}
	seven, nine := NewInt(7), NewInt(9)
	return map[string]Decision{
		"Keywords":     {Kind: DecideKeywords, Where: true, OrderBy: true},
		"SelectCount":  {Kind: DecideSelectCount, Count: 3},
		"SelectColumn": {Kind: DecideSelectColumn, Index: 1, Col: &col},
		"SelectAgg":    {Kind: DecideSelectAgg, Index: 0, Agg: AggMin},
		"From":         {Kind: DecideFrom, From: &JoinPath{Tables: []string{"starring"}}},
		"WhereCount":   {Kind: DecideWhereCount, Count: 2},
		"WhereConj":    {Kind: DecideWhereConj, Conj: LogicOr},
		"PredColumn":   {Kind: DecidePredColumn, Index: 0, Col: &col},
		"PredOp":       {Kind: DecidePredOp, Index: 0, Op: OpLe},
		"PredValue":    {Kind: DecidePredValue, Index: 0, Val: &seven},
		"GroupBy":      {Kind: DecideGroupBy},
		"NoHaving":     {Kind: DecideHaving},
		"Having":       {Kind: DecideHaving, Present: true, Agg: AggSum, Col: &col},
		"HavingOp":     {Kind: DecideHavingOp, Op: OpNe},
		"HavingValue":  {Kind: DecideHavingValue, Val: &nine},
		"OrderKey":     {Kind: DecideOrderKey, Agg: AggCount, Col: &Star},
		"OrderDir":     {Kind: DecideOrderDir, Desc: true, Count: 5},
	}
}

// Every derivation changes the child and leaves the parent — which shares
// slices and the join path with it — rendering exactly as before.
func TestDerivationsLeaveParentUntouched(t *testing.T) {
	q, same := derivable(), derivable()
	q.GroupBy = nil // so that deciding it changes something
	same.GroupBy = nil
	str, canon := q.String(), q.Canonical()
	for name, d := range derivations() {
		c := q.Apply(d)
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
	for name, d := range derivations() {
		if n := testing.AllocsPerRun(50, func() { q.Apply(d) }); n > 2 {
			t.Errorf("%s: %.0f allocations, want at most 2 (header + one slice)", name, n)
		}
	}
}

// The scratch builds the child Query.Apply builds, leaves the parent alone
// and allocates nothing once its buffers have grown.
func TestScratchBuildsTheSameChildWithoutAllocating(t *testing.T) {
	q, same := derivable(), derivable()
	var s Scratch
	for name, d := range derivations() {
		want := q.Apply(d)
		got := s.Apply(q, d)
		if got.String() != want.String() || got.Canonical() != want.Canonical() || got.Complete() != want.Complete() {
			t.Errorf("%s: scratch child %s, derived child %s", name, got, want)
		}
		if !reflect.DeepEqual(q, same) {
			t.Fatalf("%s in the scratch wrote through to the parent", name)
		}
		if n := testing.AllocsPerRun(50, func() { s.Apply(q, d) }); n != 0 {
			t.Errorf("%s: %.0f allocations in a grown scratch, want 0", name, n)
		}
	}
}
