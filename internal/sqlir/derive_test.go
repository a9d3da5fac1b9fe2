package sqlir

import (
	"reflect"
	"testing"
)

// derive is the child of q by d as a query of its own: built in a fresh
// scratch and cloned out of it.
func derive(q *Query, d Decision) *Query {
	var s Scratch
	return s.Apply(q, d).Clone()
}

// derivable is a query with every clause present, so each derivation has a
// slot to write.
func derivable() *Query {
	q := buildComplete()
	q.Where.Preds = append(q.Where.Preds, q.Where.Preds[0])
	q.HavingState = ClausePresent
	q.Having = &HavingExpr{Agg: AggCount, AggSet: true, Col: Star, ColSet: true, Op: OpGt, OpSet: true, Val: NewInt(1), ValSet: true}
	q.OrderByState = ClausePresent
	q.OrderBy = &OrderBy{Key: OrderKey{Col: col("movie.year")}, KeySet: true, DirSet: true}
	return q
}

// derivations is one decision of every kind, each with a slot of derivable()
// to write.
func derivations() map[string]Decision {
	col := col("starring.sid")
	seven, nine := NewInt(7), NewInt(9)
	return map[string]Decision{
		"Keywords":     {Kind: DecideKeywords, Where: true, OrderBy: true},
		"SelectCount":  {Kind: DecideSelectCount, Count: 3},
		"SelectColumn": {Kind: DecideSelectColumn, Index: 1, Col: &col},
		"SelectAgg":    {Kind: DecideSelectAgg, Index: 0, Agg: AggMin},
		"From":         {Kind: DecideFrom, From: mustPath("starring")},
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
// slices, clauses and the join path with the scratch child — rendering
// exactly as before. A child whose decision fills HAVING or ORDER BY holds a
// clause of its own.
func TestDerivationsLeaveParentUntouched(t *testing.T) {
	q, same := derivable(), derivable()
	q.GroupBy = nil // so that deciding it changes something
	same.GroupBy = nil
	str, canon := q.String(), q.Canonical()
	for name, d := range derivations() {
		c := derive(q, d)
		if reflect.DeepEqual(c, q) {
			t.Errorf("%s: child equals the parent", name)
		}
		if !reflect.DeepEqual(q, same) || q.String() != str || q.Canonical() != canon {
			t.Fatalf("%s wrote through to the parent:\n was %s\n now %s", name, str, q.String())
		}
		fillsHaving := d.Kind == DecideHavingOp || d.Kind == DecideHavingValue || d.Kind == DecideHaving && d.Present
		if fillsHaving && (c.Having == nil || c.Having == q.Having) {
			t.Errorf("%s: child HAVING %p, parent's %p; want a clause of its own", name, c.Having, q.Having)
		}
		fillsOrder := d.Kind == DecideOrderKey || d.Kind == DecideOrderDir
		if fillsOrder && (c.OrderBy == nil || c.OrderBy == q.OrderBy) {
			t.Errorf("%s: child ORDER BY %p, parent's %p; want a clause of its own", name, c.OrderBy, q.OrderBy)
		}
	}
}

// TestSlotDecisionsWriteOnlyTheirSlot: a decision Slot names as writing a
// projection or predicate, applied at any index of a decided parent or of
// one that is all holes, leaves everything of the child outside that one
// slot deep-equal to the parent: reopening the slot gives the parent back.
// semrules.RuleSet.CheckChild relies on it to check such a child at that
// slot alone. Every other kind reports NoSlot.
func TestSlotDecisionsWriteOnlyTheirSlot(t *testing.T) {
	holes := &Query{Select: make([]SelectItem, 2), Where: Where{Preds: make([]Predicate, 2)}}
	for name, d := range derivations() {
		kind, _ := d.Slot()
		if kind == NoSlot {
			continue
		}
		for _, q := range []*Query{derivable(), holes} {
			n := len(q.Select)
			if kind == PredicateSlot {
				n = len(q.Where.Preds)
			}
			for i := range n {
				d.Index = int32(i)
				if k, at := d.Slot(); k != kind || at != i {
					t.Fatalf("%s at %d: Slot() = %d, %d", name, i, k, at)
				}
				c := derive(q, d)
				reopened := c.Clone()
				if kind == ProjectionSlot {
					reopened.Select[i] = q.Select[i]
				} else {
					reopened.Where.Preds[i] = q.Where.Preds[i]
				}
				if !reflect.DeepEqual(reopened, q) {
					t.Errorf("%s at %d wrote outside its slot:\n parent %#v\n child  %#v", name, i, q, c)
				}
			}
		}
	}
	slots := map[DecisionKind]SlotKind{
		DecideSelectColumn: ProjectionSlot, DecideSelectAgg: ProjectionSlot,
		DecidePredColumn: PredicateSlot, DecidePredOp: PredicateSlot, DecidePredValue: PredicateSlot,
	}
	for k := DecisionKind(0); k <= DecideOrderDir; k++ {
		if got, _ := (Decision{Kind: k}).Slot(); got != slots[k] {
			t.Errorf("decision kind %d: Slot() = %d, want %d", k, got, slots[k])
		}
	}
}

// Cloning a scratch child costs its header plus one allocation per slice or
// clause it holds, its join path's included, and the clone shares nothing
// the scratch writes: it renders the same after the scratch has built every
// other child.
func TestDerivationAllocations(t *testing.T) {
	q := derivable()
	var s Scratch
	for name, d := range derivations() {
		c := s.Apply(q, d)
		held := 1
		for _, has := range []bool{c.Select != nil, c.Where.Preds != nil, c.GroupBy != nil, c.Having != nil, c.OrderBy != nil} {
			if has {
				held++
			}
		}
		if n := testing.AllocsPerRun(50, func() { c.Clone() }); n > float64(held) {
			t.Errorf("%s: cloning it cost %.0f allocations, want at most %d (header + what it holds)", name, n, held)
		}
		kept, was := c.Clone(), c.String()
		for _, other := range derivations() {
			s.Apply(q, other)
		}
		if now := kept.String(); now != was {
			t.Errorf("%s: the kept child changed with the scratch:\n was %s\n now %s", name, was, now)
		}
	}
}

// A grown scratch builds the child a fresh one builds, leaves the parent
// alone and allocates nothing.
func TestScratchBuildsTheSameChildWithoutAllocating(t *testing.T) {
	q, same := derivable(), derivable()
	var s Scratch
	for name, d := range derivations() {
		want := derive(q, d)
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

// A path of decisions of every kind from the empty query to a complete one.
func decisionPath() []Decision {
	title, year := col("movie.title"), col("movie.year")
	lo, hi, two := NewInt(1990), NewInt(2000), NewInt(2)
	return []Decision{
		{Kind: DecideKeywords, Where: true, GroupBy: true, OrderBy: true},
		{Kind: DecideSelectCount, Count: 2},
		{Kind: DecideSelectColumn, Index: 0, Col: &title},
		{Kind: DecideSelectAgg, Index: 0, Agg: AggNone},
		{Kind: DecideSelectColumn, Index: 1, Col: &year},
		{Kind: DecideSelectAgg, Index: 1, Agg: AggMax},
		{Kind: DecideFrom, From: mustPath("movie")},
		{Kind: DecideWhereCount, Count: 2},
		{Kind: DecideWhereConj, Conj: LogicOr},
		{Kind: DecidePredColumn, Index: 0, Col: &year},
		{Kind: DecidePredOp, Index: 0, Op: OpLt},
		{Kind: DecidePredValue, Index: 0, Val: &lo},
		{Kind: DecidePredColumn, Index: 1, Col: &year},
		{Kind: DecidePredOp, Index: 1, Op: OpGt},
		{Kind: DecidePredValue, Index: 1, Val: &hi},
		{Kind: DecideGroupBy},
		{Kind: DecideHaving, Present: true, Agg: AggCount, Col: &Star},
		{Kind: DecideHavingOp, Op: OpGe},
		{Kind: DecideHavingValue, Val: &two},
		{Kind: DecideOrderKey, Agg: AggMax, Col: &year},
		{Kind: DecideOrderDir, Desc: true, Count: 3},
	}
}

// Applying a path's decisions one after another, each to the scratch's own
// query, builds for every prefix the query the chain of derivations builds,
// field for field, and a grown scratch does it without allocating.
func TestReplayIsTheChainOfDerivations(t *testing.T) {
	path := decisionPath()
	var s Scratch
	var root Query // Apply never writes a query that is not the scratch's
	chain := func(ds []Decision) *Query {
		q := &root
		for _, d := range ds {
			q = s.Apply(q, d)
		}
		return q
	}
	want := NewQuery()
	for i := range path {
		want = derive(want, path[i])
		got := chain(path[:i+1])
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Fatalf("after %d decisions: applied in place %s, derived %s", i+1, got, want)
		}
	}
	if !want.Complete() {
		t.Fatalf("the path ends in an incomplete query %s", want)
	}
	if n := testing.AllocsPerRun(50, func() { chain(path) }); n != 0 {
		t.Errorf("applying %d decisions in place in a grown scratch cost %.0f allocations, want 0", len(path), n)
	}
}
