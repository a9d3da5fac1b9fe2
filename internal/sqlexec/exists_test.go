package sqlexec

import (
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

func pred(db *storage.Database, table, col string, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{
		Col: Col(db, table, col), ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

func TestExistsSimple(t *testing.T) {
	db := movieDB()
	// CV1 from Example 3.5: SELECT 1 FROM actor WHERE name='Tom Hanks' LIMIT 1
	ok, err := Exists(db, ExistsQuery{
		From:  MustPath(db, "actor"),
		Preds: []sqlir.Predicate{pred(db, "actor", "name", sqlir.OpEq, text("Tom Hanks"))},
	})
	if err != nil || !ok {
		t.Errorf("exists = %v, %v", ok, err)
	}
	// CV3-style failure: revenue between 1950 and 1960 never holds.
	ok, err = Exists(db, ExistsQuery{
		From: MustPath(db, "movie"),
		Conj: sqlir.LogicAnd,
		Preds: []sqlir.Predicate{
			pred(db, "movie", "revenue", sqlir.OpGe, num(1950)),
			pred(db, "movie", "revenue", sqlir.OpLe, num(1960)),
		},
	})
	if err != nil || ok {
		t.Errorf("exists = %v, %v; want false", ok, err)
	}
}

func TestExistsNoPreds(t *testing.T) {
	db := movieDB()
	ok, err := Exists(db, ExistsQuery{From: MustPath(db, "actor")})
	if err != nil || !ok {
		t.Errorf("exists = %v, %v", ok, err)
	}
}

func TestExistsEmptyTable(t *testing.T) {
	db := movieDB()
	ok, err := Exists(db, ExistsQuery{
		From:  MustPath(db, "actor"),
		Preds: []sqlir.Predicate{pred(db, "actor", "name", sqlir.OpEq, text("Nobody"))},
	})
	if err != nil || ok {
		t.Errorf("exists = %v, %v; want false", ok, err)
	}
}

func TestExistsWithJoin(t *testing.T) {
	db := movieDB()
	jp := MustPath(db, "actor", "starring.aid = actor.aid", "starring.mid = movie.mid")
	ok, err := Exists(db, ExistsQuery{
		From: jp,
		Conj: sqlir.LogicAnd,
		Preds: []sqlir.Predicate{
			pred(db, "actor", "name", sqlir.OpEq, text("Tom Hanks")),
			pred(db, "movie", "title", sqlir.OpEq, text("Forrest Gump")),
		},
	})
	if err != nil || !ok {
		t.Errorf("join exists = %v, %v", ok, err)
	}
	ok, _ = Exists(db, ExistsQuery{
		From: jp,
		Conj: sqlir.LogicAnd,
		Preds: []sqlir.Predicate{
			pred(db, "actor", "name", sqlir.OpEq, text("Tom Hanks")),
			pred(db, "movie", "title", sqlir.OpEq, text("Gravity")),
		},
	})
	if ok {
		t.Error("Hanks was not in Gravity")
	}
}

// TestExistsGroupedHaving covers RV2 from Example 3.6: a row-wise
// verification query with GROUP BY and HAVING range constraints.
func TestExistsGroupedHaving(t *testing.T) {
	db := movieDB()
	jp := MustPath(db, "actor", "starring.aid = actor.aid")
	having := func(op sqlir.Op, v float64) sqlir.HavingExpr {
		return sqlir.HavingExpr{
			Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
			Op: op, OpSet: true, Val: num(v), ValSet: true,
		}
	}
	// Tom Hanks has 2 starring rows: COUNT between 1950 and 1960 fails...
	ok, err := Exists(db, ExistsQuery{
		From:    jp,
		Preds:   []sqlir.Predicate{pred(db, "actor", "name", sqlir.OpEq, text("Tom Hanks"))},
		GroupBy: []sqlir.ColumnRef{Col(db, "actor", "name")},
		Havings: []sqlir.HavingExpr{having(sqlir.OpGe, 1950), having(sqlir.OpLe, 1960)},
	})
	if err != nil || ok {
		t.Errorf("RV2-style check = %v, %v; want false", ok, err)
	}
	// ...but COUNT between 1 and 5 succeeds.
	ok, err = Exists(db, ExistsQuery{
		From:    jp,
		Preds:   []sqlir.Predicate{pred(db, "actor", "name", sqlir.OpEq, text("Tom Hanks"))},
		GroupBy: []sqlir.ColumnRef{Col(db, "actor", "name")},
		Havings: []sqlir.HavingExpr{having(sqlir.OpGe, 1), having(sqlir.OpLe, 5)},
	})
	if err != nil || !ok {
		t.Errorf("grouped exists = %v, %v; want true", ok, err)
	}
}

func TestExistsIncompletePredicateRejected(t *testing.T) {
	db := movieDB()
	p := pred(db, "actor", "name", sqlir.OpEq, text("X"))
	p.ValSet = false
	if _, err := Exists(db, ExistsQuery{From: MustPath(db, "actor"), Preds: []sqlir.Predicate{p}}); err == nil {
		t.Error("incomplete predicate should error")
	}
}

func TestExistsBadPath(t *testing.T) {
	db := movieDB()
	if _, err := Exists(db, ExistsQuery{From: MustPath(otherCatalogDB(), "nope")}); err == nil {
		t.Error("a path over another catalog should error")
	}
	if _, err := Exists(db, ExistsQuery{From: nil}); err == nil {
		t.Error("nil path should error")
	}
}

func TestExistsHavingOnlyNoGroupBy(t *testing.T) {
	db := movieDB()
	// Single implicit group over all rows: COUNT(*) = 4 movies.
	h := sqlir.HavingExpr{
		Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
		Op: sqlir.OpEq, OpSet: true, Val: num(4), ValSet: true,
	}
	ok, err := Exists(db, ExistsQuery{From: MustPath(db, "movie"), Havings: []sqlir.HavingExpr{h}})
	if err != nil || !ok {
		t.Errorf("implicit group exists = %v, %v", ok, err)
	}
	h.Val = num(5)
	ok, _ = Exists(db, ExistsQuery{From: MustPath(db, "movie"), Havings: []sqlir.HavingExpr{h}})
	if ok {
		t.Error("COUNT(*)=5 should fail")
	}
}
