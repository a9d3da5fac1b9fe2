package sqlexec

import (
	"context"

	"math"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// TestExistsMalformedPathNoPanic pins the bind error for a join path with
// edges but no tables: both entry points must report the reference's error,
// not panic.
func TestExistsMalformedPathNoPanic(t *testing.T) {
	db := movieDB()
	eq := ExistsQuery{From: &sqlir.JoinPath{
		Edges: []sqlir.JoinEdge{{FromTable: "starring", FromColumn: "aid", ToTable: "actor", ToColumn: "aid"}},
	}}
	if _, err := Exists(db, eq); err == nil || !strings.Contains(err.Error(), "empty join path") {
		t.Errorf("Exists error = %v", err)
	}
	if _, err := NewJoinCache(db).Exists(eq); err == nil || !strings.Contains(err.Error(), "empty join path") {
		t.Errorf("JoinCache.Exists error = %v", err)
	}
}

// TestGroupedSumOverTextLazyError pins the lazy HAVING evaluation contract:
// SUM/AVG over a text column only errors when that aggregate is actually
// evaluated — a group rejected by an earlier HAVING condition must not
// surface the type error, matching the materializing reference path.
func TestGroupedSumOverTextLazyError(t *testing.T) {
	db := movieDB()
	sumName := sqlir.HavingExpr{
		Agg: sqlir.AggSum, AggSet: true,
		Col: sqlir.ColumnRef{Table: "actor", Column: "name"}, ColSet: true,
		Op: sqlir.OpGt, OpSet: true, Val: num(0), ValSet: true,
	}
	countStar := func(op sqlir.Op, v float64) sqlir.HavingExpr {
		return sqlir.HavingExpr{
			Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
			Op: op, OpSet: true, Val: num(v), ValSet: true,
		}
	}
	path := &sqlir.JoinPath{Tables: []string{"actor"}}
	group := []sqlir.ColumnRef{{Table: "actor", Column: "gender"}}

	// COUNT(*) > 100 fails every group first: SUM(name) is never evaluated,
	// so neither path may error.
	eq := ExistsQuery{From: path, GroupBy: group, Havings: []sqlir.HavingExpr{countStar(sqlir.OpGt, 100), sumName}}
	refRel, err := join(context.Background(), db, path)
	if err != nil {
		t.Fatal(err)
	}
	refOK, refErr := existsOn(context.Background(), db, refRel, eq)
	gotOK, gotErr := Exists(db, eq)
	if refErr != nil || gotErr != nil {
		t.Fatalf("short-circuited SUM must not error: ref=%v stream=%v", refErr, gotErr)
	}
	if refOK || gotOK {
		t.Fatalf("no group passes COUNT(*)>100: ref=%v stream=%v", refOK, gotOK)
	}

	// COUNT(*) >= 1 passes, so SUM(name) is evaluated: both paths must
	// report the same non-numeric error.
	eq.Havings = []sqlir.HavingExpr{countStar(sqlir.OpGe, 1), sumName}
	_, refErr = existsOn(context.Background(), db, refRel, eq)
	_, gotErr = Exists(db, eq)
	if refErr == nil || gotErr == nil {
		t.Fatalf("evaluated SUM over text must error: ref=%v stream=%v", refErr, gotErr)
	}
	if refErr.Error() != gotErr.Error() {
		t.Fatalf("error text diverges: ref=%q stream=%q", refErr, gotErr)
	}
}

// TestValueKeyInjective pins the key encoding against separator collisions:
// text payloads containing the NUL separator must not merge under
// DISTINCT/grouping.
func TestValueKeyInjective(t *testing.T) {
	rows := [][]sqlir.Value{
		{sqlir.NewText("a\x00tb"), sqlir.NewText("c")},
		{sqlir.NewText("a"), sqlir.NewText("b\x00tc")},
		{sqlir.NewText("a"), sqlir.NewText("b")},
		{sqlir.NewText("ab"), sqlir.NewText("")},
		{sqlir.NewText("5"), sqlir.NewText("x")},
		{sqlir.NewNumber(5), sqlir.NewText("x")},
		{sqlir.Null(), sqlir.NewText("x")},
	}
	seen := map[string][]sqlir.Value{}
	for _, row := range rows {
		var buf []byte
		for _, v := range row {
			buf = appendValueKey(buf, v)
		}
		if prev, dup := seen[string(buf)]; dup {
			t.Errorf("rows %v and %v collide on key %q", prev, row, buf)
		}
		seen[string(buf)] = row
	}
	// Equal rows must still produce equal keys.
	a := appendValueKey(nil, sqlir.NewText("x"))
	b := appendValueKey(nil, sqlir.NewText("x"))
	if string(a) != string(b) {
		t.Error("equal values must encode identically")
	}
	// -0.0 equals 0.0 under Value.Equal, so the keys must merge too (the
	// pre-refactor FormatNumber-based keys rendered both as "0").
	z := appendValueKey(nil, sqlir.NewNumber(0))
	nz := appendValueKey(nil, sqlir.NewNumber(math.Copysign(0, -1)))
	if string(z) != string(nz) {
		t.Errorf("-0.0 and 0.0 must share a key: %q vs %q", z, nz)
	}
}
