package sqlir

import (
	"reflect"
	"strings"
	"testing"
)

// buildComplete returns a fully decided query:
// SELECT m.name, MAX(m.year) FROM movie JOIN starring ON ... WHERE m.year > 2000 GROUP BY m.name
func buildComplete() *Query {
	q := NewQuery()
	q.KWSet = true
	q.SelectCountSet = true
	q.Select = []SelectItem{
		{Agg: AggNone, AggSet: true, Col: col("movie.name"), ColSet: true},
		{Agg: AggMax, AggSet: true, Col: col("movie.year"), ColSet: true},
	}
	q.From = mustPath("movie", on("starring.mid", "movie.mid"))
	q.WhereState = ClausePresent
	q.Where = Where{
		CountSet: true,
		ConjSet:  true,
		Conj:     LogicAnd,
		Preds: []Predicate{
			{Col: col("movie.year"), ColSet: true, Op: OpGt, OpSet: true, Val: NewInt(2000), ValSet: true},
		},
	}
	q.GroupByState = ClausePresent
	q.GroupBy = []ColumnRef{col("movie.name")}
	q.HavingState = ClauseAbsent
	q.OrderByState = ClauseAbsent
	q.LimitSet = true
	return q
}

func TestQueryComplete(t *testing.T) {
	q := buildComplete()
	if !q.Complete() {
		t.Fatalf("expected complete, got %s", q)
	}
	// Removing individual decisions makes it incomplete again.
	mutations := []func(*Query){
		func(q *Query) { q.KWSet = false },
		func(q *Query) { q.SelectCountSet = false },
		func(q *Query) { q.Select[0].ColSet = false },
		func(q *Query) { q.Select[1].AggSet = false },
		func(q *Query) { q.From = nil },
		func(q *Query) { q.WhereState = ClausePending },
		func(q *Query) { q.Where.Preds[0].OpSet = false },
		func(q *Query) { q.Where.Preds[0].ValSet = false },
		func(q *Query) { q.Where.CountSet = false },
		func(q *Query) { q.GroupByState = ClausePending },
		func(q *Query) { q.GroupBy = nil },
		func(q *Query) { q.HavingState = ClausePending },
		func(q *Query) { q.OrderByState = ClausePending },
		func(q *Query) { q.LimitSet = false },
	}
	for i, m := range mutations {
		qc := buildComplete()
		m(qc)
		if qc.Complete() {
			t.Errorf("mutation %d: query should be incomplete: %s", i, qc)
		}
	}
}

func TestWhereConjRequiredOnlyForMultiplePreds(t *testing.T) {
	q := buildComplete()
	q.Where.ConjSet = false // single predicate: conjunction irrelevant
	if !q.Complete() {
		t.Error("single-predicate WHERE should not need ConjSet")
	}
	q.Where.Preds = append(q.Where.Preds, Predicate{
		Col: col("movie.year"), ColSet: true, Op: OpLt, OpSet: true, Val: NewInt(2020), ValSet: true,
	})
	if q.Complete() {
		t.Error("two-predicate WHERE needs ConjSet")
	}
	q.Where.ConjSet = true
	if !q.Complete() {
		t.Error("should be complete with ConjSet")
	}
}

func TestHasAggregate(t *testing.T) {
	q := buildComplete()
	if !q.HasAggregate() {
		t.Error("query has MAX, HasAggregate should be true")
	}
	q.Select[1].Agg = AggNone
	if q.HasAggregate() {
		t.Error("no aggregates left")
	}
	q = buildComplete()
	q.Select[1].AggSet = false // an aggregate not yet decided
	if q.HasAggregate() {
		t.Error("an undecided aggregate is no aggregate")
	}
}

func TestReferencedTables(t *testing.T) {
	q := buildComplete()
	movie, actor := col("movie.mid").Table(), col("actor.aid").Table()
	if got := q.ReferencedTables(); got != TableSet(0).With(movie) {
		t.Errorf("ReferencedTables = %v, want {movie}", got.Ordinals())
	}
	// Add a where column on a second table.
	q.Where.Preds = append(q.Where.Preds, Predicate{
		Col: col("actor.name"), ColSet: true, Op: OpEq, OpSet: true, Val: NewText("X"), ValSet: true,
	})
	if got := q.ReferencedTables(); got != TableSet(0).With(movie).With(actor) {
		t.Errorf("ReferencedTables = %v, want {movie actor}", got.Ordinals())
	}
	// Star and undecided columns do not contribute.
	q2 := NewQuery()
	q2.Select = []SelectItem{{Agg: AggCount, AggSet: true, Col: Star, ColSet: true}}
	if got := q2.ReferencedTables(); got != 0 {
		t.Errorf("star should not contribute tables: %v", got.Ordinals())
	}
}

func TestLiterals(t *testing.T) {
	q := buildComplete()
	lits := q.Literals()
	if len(lits) != 1 || !lits[0].Equal(NewInt(2000)) {
		t.Errorf("Literals = %v", lits)
	}
	q.HavingState = ClausePresent
	q.Having = &HavingExpr{
		Agg: AggCount, AggSet: true, Col: Star, ColSet: true,
		Op: OpGt, OpSet: true, Val: NewInt(5), ValSet: true,
	}
	lits = q.Literals()
	if len(lits) != 2 || !lits[1].Equal(NewInt(5)) {
		t.Errorf("Literals with HAVING = %v", lits)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := buildComplete()
	q.HavingState = ClausePresent
	q.Having = &HavingExpr{Agg: AggCount, AggSet: true, Col: Star, ColSet: true, Op: OpGt, OpSet: true, Val: NewInt(1), ValSet: true}
	q.OrderByState = ClausePresent
	q.OrderBy = &OrderBy{Key: OrderKey{Col: col("movie.year")}, KeySet: true, DirSet: true}
	c := q.Clone()
	c.Select[0].Col = Star
	c.Where.Preds[0].Val = NewInt(9999)
	c.GroupBy[0] = Star
	c.Having.Val = NewInt(9999)
	c.OrderBy.Desc = true
	if !q.Having.Val.Equal(NewInt(1)) {
		t.Error("clone mutated original having")
	}
	if q.OrderBy.Desc {
		t.Error("clone mutated original order by")
	}
	if q.Select[0].Col != col("movie.name") {
		t.Error("clone mutated original select")
	}
	if !q.Where.Preds[0].Val.Equal(NewInt(2000)) {
		t.Error("clone mutated original where")
	}
	if q.GroupBy[0] != col("movie.name") {
		t.Error("clone mutated original group by")
	}
	if c.From != q.From {
		t.Error("clone copied the join path, which is never written")
	}
}

func TestQueryStringCompleteRendering(t *testing.T) {
	q := buildComplete()
	s := q.String()
	for _, want := range []string{
		"SELECT movie.name, MAX(movie.year)",
		"FROM movie JOIN starring ON starring.mid = movie.mid",
		"WHERE movie.year > 2000",
		"GROUP BY movie.name",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "?") {
		t.Errorf("complete query should have no placeholders: %q", s)
	}
}

func TestQueryStringPlaceholders(t *testing.T) {
	q := NewQuery()
	s := q.String()
	if !strings.Contains(s, "SELECT ?") || !strings.Contains(s, "FROM ?") {
		t.Errorf("empty query rendering: %q", s)
	}
	q.WhereState = ClausePending
	if !strings.Contains(q.String(), "WHERE ?") {
		t.Errorf("pending where rendering: %q", q.String())
	}
	q.OrderByState = ClausePending
	if !strings.Contains(q.String(), "ORDER BY ?") {
		t.Errorf("pending order rendering: %q", q.String())
	}
}

func TestOrderByLimitRendering(t *testing.T) {
	q := buildComplete()
	q.OrderByState = ClausePresent
	q.OrderBy = &OrderBy{
		Key:    OrderKey{Agg: AggCount, Col: Star},
		KeySet: true,
		Desc:   true,
		DirSet: true,
	}
	q.Limit = 5
	s := q.String()
	if !strings.Contains(s, "ORDER BY COUNT(*) DESC") || !strings.Contains(s, "LIMIT 5") {
		t.Errorf("order/limit rendering: %q", s)
	}
}

func TestJoinPathString(t *testing.T) {
	jp := mustPath("actor", on("starring.aid", "actor.aid"), on("starring.mid", "movie.mid"))
	s := jp.String()
	want := "actor JOIN starring ON starring.aid = actor.aid JOIN movie ON starring.mid = movie.mid"
	if s != want {
		t.Errorf("JoinPath.String() = %q, want %q", s, want)
	}
	if jp.Len() != 3 {
		t.Errorf("Len = %d", jp.Len())
	}
	if jp.Set() != TableSet(0).With(0).With(1).With(2) {
		t.Errorf("Set = %v", jp.Set().Ordinals())
	}
	var nilPath *JoinPath
	if nilPath.Len() != 0 || nilPath.String() != "?" {
		t.Error("nil path handling")
	}
}

func TestSelectItemString(t *testing.T) {
	si := SelectItem{Agg: AggNone, AggSet: true, Col: col("t.c"), ColSet: true}
	if si.String() != "t.c" {
		t.Errorf("got %q", si.String())
	}
	si.Agg = AggCount
	if si.String() != "COUNT(t.c)" {
		t.Errorf("got %q", si.String())
	}
	si.AggSet = false
	if si.String() != "?(t.c)" {
		t.Errorf("got %q", si.String())
	}
}

func TestColumnRefString(t *testing.T) {
	if Star.String() != "*" {
		t.Error("star")
	}
	if (ColumnRef{}).String() != "?" {
		t.Error("zero ref")
	}
	if (col("t.c")).String() != "t.c" {
		t.Error("qualified ref")
	}
	if (ColumnRef{}).Catalog() != nil || Star.Catalog() != nil || !(ColumnRef{}).IsZero() || !Star.IsStar() {
		t.Error("the zero ref and * have no catalog")
	}
}

// The IR's sizes: a search copies these once per state it looks at.
func TestIRSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"ColumnRef", reflect.TypeFor[ColumnRef]().Size(), 16},
		{"SelectItem", reflect.TypeFor[SelectItem]().Size(), 24},
		{"Predicate", reflect.TypeFor[Predicate]().Size(), 56},
		{"HavingExpr", reflect.TypeFor[HavingExpr]().Size(), 56},
		{"OrderBy", reflect.TypeFor[OrderBy]().Size(), 32},
		{"Query", reflect.TypeFor[Query]().Size(), 120},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}
