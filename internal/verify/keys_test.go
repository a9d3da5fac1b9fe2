package verify

import (
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/tsq"
)

// The word-at-a-time string mixing must stay injective: strings that share
// a prefix, differ only in length around the eight-byte word boundary, or
// differ only in where one string ends and the next begins must all hash
// apart, in both lanes.
func TestHash128StringBoundaries(t *testing.T) {
	seqs := [][]string{
		{""}, {"", ""}, {"a"}, {"a", ""}, {"", "a"},
		{"ab", "c"}, {"a", "bc"}, {"abc"},
		{"1234567"}, {"12345678"}, {"123456789"}, {"12345678", "9"},
		{"1234567\x00"}, {"12345678\x00"},
		{strings.Repeat("x", 300)}, {strings.Repeat("x", 301)},
	}
	seen := map[memoKey][]string{}
	lanes := [2]map[uint64]bool{{}, {}}
	for _, seq := range seqs {
		h := newHash128()
		for _, s := range seq {
			h.str(s)
		}
		k := h.sum()
		if prev, ok := seen[k]; ok {
			t.Errorf("%q and %q collide on %x", prev, seq, k)
		}
		seen[k] = seq
		for i, lane := range k {
			if lanes[i][lane] {
				t.Errorf("%q repeats lane %d value %x", seq, i, lane)
			}
			lanes[i][lane] = true
		}
	}
	a, b := newHash128(), newHash128()
	a.str("duoquest")
	b.str("duoquest")
	if a.sum() != b.sum() {
		t.Error("equal inputs must hash equal")
	}
}

func keysPred(table, col string, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{
		Col: sqlir.ColumnRef{Table: table, Column: col}, ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

// Hashed keys must partition queries exactly as the canonical string keys
// do: same string ⟺ same hash, across a family of near-miss variants
// (moved literal, swapped predicate split, reordered group-by, text vs
// number literal).
func TestExistsKeyAgreesWithExistsSig(t *testing.T) {
	path := &sqlir.JoinPath{Tables: []string{"movie"}}
	variants := []sqlexec.ExistsQuery{
		{From: path, Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{keysPred("movie", "title", sqlir.OpEq, sqlir.NewText("Heat"))}},
		{From: path, Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{keysPred("movie", "title", sqlir.OpEq, sqlir.NewText("Heat"))}}, // dup of [0]
		{From: path, Conj: sqlir.LogicOr,
			Preds: []sqlir.Predicate{keysPred("movie", "title", sqlir.OpEq, sqlir.NewText("Heat"))}},
		{From: path, Conj: sqlir.LogicAnd,
			AndPreds: []sqlir.Predicate{keysPred("movie", "title", sqlir.OpEq, sqlir.NewText("Heat"))}},
		{From: path, Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{keysPred("movie", "title", sqlir.OpEq, sqlir.NewText("1994"))}},
		{From: path, Conj: sqlir.LogicAnd,
			Preds: []sqlir.Predicate{keysPred("movie", "year", sqlir.OpEq, sqlir.NewInt(1994))}},
		{From: path, Conj: sqlir.LogicAnd,
			GroupBy: []sqlir.ColumnRef{{Table: "movie", Column: "year"}},
			Havings: []sqlir.HavingExpr{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(2), ValSet: true}}},
		{From: path, Conj: sqlir.LogicAnd,
			GroupBy: []sqlir.ColumnRef{{Table: "movie", Column: "year"}},
			Havings: []sqlir.HavingExpr{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(3), ValSet: true}}},
	}
	for i, a := range variants {
		for j, b := range variants {
			sigEq := existsSig(a) == existsSig(b)
			keyEq := existsKey(a) == existsKey(b)
			if sigEq != keyEq {
				t.Errorf("variants %d vs %d: sig equal=%v but key equal=%v", i, j, sigEq, keyEq)
			}
		}
	}
}

// Distinct column-check questions must hash to distinct keys, and repeated
// questions to the same key.
func TestColumnCellKeyDistinguishesQuestions(t *testing.T) {
	col := sqlir.ColumnRef{Table: "movie", Column: "year"}
	other := sqlir.ColumnRef{Table: "movie", Column: "title"}
	cells := []tsq.Cell{
		tsq.Exact(sqlir.NewInt(1994)),
		tsq.Exact(sqlir.NewText("1994")),
		tsq.Range(1990, 2000),
		tsq.Empty(),
	}
	seen := map[memoKey]string{}
	add := func(avg bool, c sqlir.ColumnRef, cell tsq.Cell, label string) {
		k := columnCellKey(avg, c, cell)
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %s and %s", prev, label)
		}
		seen[k] = label
	}
	for i, cell := range cells {
		add(false, col, cell, "year/"+cell.String()+string(rune('0'+i)))
	}
	add(true, col, cells[0], "avg-year")
	add(false, other, cells[0], "title")

	if columnCellKey(false, col, cells[0]) != columnCellKey(false, col, tsq.Exact(sqlir.NewInt(1994))) {
		t.Error("identical questions must produce identical keys")
	}
}

// The debug cross-check must catch a key that arrives with two different
// canonical strings (a simulated hash collision).
func TestMemoKeyCollisionDetection(t *testing.T) {
	prev := SetDebugMemoKeys(true)
	defer SetDebugMemoKeys(prev)

	bm := &boolMemo{}
	key := memoKey{1, 2}
	if _, _, err := bm.do(key, func() string { return "question A" }, nil, func() (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	// Same key, same canonical string: fine.
	if _, _, err := bm.do(key, func() string { return "question A" }, nil, func() (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on key collision with a different canonical string")
		}
	}()
	bm.do(key, func() string { return "question B" }, nil, func() (bool, error) { return true, nil })
}

// End-to-end: a verifier workload with the collision cross-check enabled —
// every memoized probe recomputes its pre-refactor string key and asserts
// the hashed keys partition identically.
func TestVerifierWorkloadUnderDebugKeys(t *testing.T) {
	prev := SetDebugMemoKeys(true)
	defer SetDebugMemoKeys(prev)

	db := movieDB()
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText},
		Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump"))}},
	}
	q, err := sqlparse.Parse(db.Schema, "SELECT title FROM movie WHERE year > 1990")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(db)
	for i := 0; i < 3; i++ {
		v := NewWithCache(db, nil, sketch, nil, cache)
		if _, err := v.Verify(q); err != nil {
			t.Fatal(err)
		}
	}
}
