package sqlir

import "testing"

func TestCanonicalPredicateOrderInsensitive(t *testing.T) {
	mk := func(swap bool) *Query {
		q := buildComplete()
		q.Where.Preds = []Predicate{
			{Col: col("movie.year"), ColSet: true, Op: OpGt, OpSet: true, Val: NewInt(2000), ValSet: true},
			{Col: col("movie.year"), ColSet: true, Op: OpLt, OpSet: true, Val: NewInt(2020), ValSet: true},
		}
		if swap {
			q.Where.Preds[0], q.Where.Preds[1] = q.Where.Preds[1], q.Where.Preds[0]
		}
		return q
	}
	if !Equivalent(mk(false), mk(true)) {
		t.Error("predicate order should not matter")
	}
}

func TestCanonicalConjunctionMatters(t *testing.T) {
	mk := func(c LogicalOp) *Query {
		q := buildComplete()
		q.Where.Conj = c
		q.Where.Preds = append(q.Where.Preds, Predicate{
			Col: col("movie.year"), ColSet: true, Op: OpLt, OpSet: true, Val: NewInt(1995), ValSet: true,
		})
		return q
	}
	if Equivalent(mk(LogicAnd), mk(LogicOr)) {
		t.Error("AND vs OR must differ")
	}
}

func TestCanonicalJoinOrderInsensitive(t *testing.T) {
	a := buildComplete()
	b := buildComplete()
	b.From = mustPath("starring", on("starring.mid", "movie.mid"))
	if !Equivalent(a, b) {
		t.Errorf("join order should not matter:\n%s\n%s", a.Canonical(), b.Canonical())
	}
}

func TestCanonicalEdgeDirectionInsensitive(t *testing.T) {
	a := buildComplete()
	b := buildComplete()
	b.From = mustPath("movie", on("movie.mid", "starring.mid"))
	if !Equivalent(a, b) {
		t.Errorf("edge direction should not matter:\n%s\n%s", a.Canonical(), b.Canonical())
	}
}

func TestCanonicalSelectOrderSignificant(t *testing.T) {
	a := buildComplete()
	b := buildComplete()
	b.Select[0], b.Select[1] = b.Select[1], b.Select[0]
	if Equivalent(a, b) {
		t.Error("projection order is significant")
	}
}

func TestCanonicalGroupByOrderInsensitive(t *testing.T) {
	a := buildComplete()
	a.GroupBy = []ColumnRef{col("movie.name"), col("movie.year")}
	b := buildComplete()
	b.GroupBy = []ColumnRef{col("movie.year"), col("movie.name")}
	if !Equivalent(a, b) {
		t.Error("group by order should not matter")
	}
}

func TestCanonicalLimitSignificant(t *testing.T) {
	a := buildComplete()
	b := buildComplete()
	b.Limit = 10
	if Equivalent(a, b) {
		t.Error("limit must be significant")
	}
}

func TestCanonicalDistinctSignificant(t *testing.T) {
	a := buildComplete()
	b := buildComplete()
	b.Distinct = true
	if Equivalent(a, b) {
		t.Error("distinct must be significant")
	}
}

func TestEquivalentNil(t *testing.T) {
	if !Equivalent(nil, nil) {
		t.Error("nil == nil")
	}
	if Equivalent(nil, buildComplete()) || Equivalent(buildComplete(), nil) {
		t.Error("nil != non-nil")
	}
}

func TestCanonicalSelfEquivalence(t *testing.T) {
	q := buildComplete()
	if !Equivalent(q, q.Clone()) {
		t.Error("clone must be equivalent to original")
	}
}
