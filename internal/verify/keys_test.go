package verify

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
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

// existsKey hashes a built exists query into the memo key rowQuestion.key
// hashes in place: the same words in the same order. It is the key's
// specification, which TestByRowKeysAreTheQuestions holds the served key
// to over the Spider walk.
func existsKey(eq sqlexec.ExistsQuery) memoKey {
	h := newHash128()
	if eq.From != nil {
		h.word(uint64(eq.From.Tables()[0]))
		h.word(uint64(len(eq.From.Edges())))
		for _, e := range eq.From.Edges() {
			h.word(uint64(e.Joined.Table()))
			h.word(uint64(e.Joined.Column()))
			h.word(uint64(e.New.Table()))
			h.word(uint64(e.New.Column()))
		}
	}
	h.word('|')
	h.word(uint64(eq.Conj))
	h.predicates(eq.Preds)
	h.predicates(eq.AndPreds)
	h.word(uint64(len(eq.GroupBy)))
	for _, g := range eq.GroupBy {
		h.columnRef(g)
	}
	h.word(uint64(len(eq.Havings)))
	for _, hv := range eq.Havings {
		h.word(uint64(hv.Agg))
		h.columnRef(hv.Col)
		h.word(uint64(hv.Op))
		h.value(hv.Val)
	}
	return h.sum()
}

func (h *hash128) predicates(ps []sqlir.Predicate) {
	h.word(uint64(len(ps)))
	for _, p := range ps {
		h.columnRef(p.Col)
		h.word(uint64(p.Op))
		h.value(p.Val)
	}
}

// movieCol is movieDB's column table.column.
func movieCol(table, column string) sqlir.ColumnRef {
	return movieDB().Schema.Catalog().MustCol(table, column)
}

func keysPred(table, col string, op sqlir.Op, v sqlir.Value) sqlir.Predicate {
	return sqlir.Predicate{
		Col: movieCol(table, col), ColSet: true,
		Op: op, OpSet: true, Val: v, ValSet: true,
	}
}

// existsSig renders an exists query as its canonical string: every field,
// separated, in the order existsKey mixes them. It is the string key the row
// memo used before the hashed keys, kept here as their specification.
func existsSig(eq sqlexec.ExistsQuery) string {
	var b strings.Builder
	if eq.From != nil {
		fmt.Fprint(&b, eq.From.Tables()[0])
		for _, e := range eq.From.Edges() {
			fmt.Fprint(&b, ",", e.Joined, e.New)
		}
	}
	b.WriteByte('|')
	b.WriteString(eq.Conj.String())
	for _, p := range eq.Preds {
		b.WriteString(p.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, p := range eq.AndPreds {
		b.WriteString(p.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, g := range eq.GroupBy {
		b.WriteString(g.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, h := range eq.Havings {
		b.WriteString(h.String())
		b.WriteByte(';')
	}
	return b.String()
}

// cellSig renders a column-check question as its canonical string, values
// quoted by kind (tsq.Cell.String does not tell 1994 from '1994').
func cellSig(avg bool, col sqlir.ColumnRef, cell tsq.Cell) string {
	return fmt.Sprintf("%v|%s|%d|%s|%s|%s", avg, col, cell.Kind, cell.Val, cell.Lo, cell.Hi)
}

// checkPartition asserts that key partitions a family of questions exactly
// as sig does — two questions share a key if and only if they share a
// canonical string — and that the family is large and has repeats, so both
// directions are exercised.
func checkPartition(t *testing.T, n int, sig func(i int) string, key func(i int) memoKey) {
	t.Helper()
	bySig := map[string]memoKey{}
	byKey := map[memoKey]string{}
	for i := 0; i < n; i++ {
		s, k := sig(i), key(i)
		if prev, ok := bySig[s]; ok && prev != k {
			t.Errorf("%q hashes to %x and %x", s, prev, k)
		}
		if prev, ok := byKey[k]; ok && prev != s {
			t.Errorf("%q and %q share key %x", prev, s, k)
		}
		bySig[s], byKey[k] = k, s
	}
	if n < 1000 || len(bySig) == n {
		t.Errorf("%d questions, %d distinct: the family must hold at least 1000 and repeat some", n, len(bySig))
	}
}

// literals are the literal kinds the generated families draw from: text
// that reads as a number, its number, a fraction, 0 and -0 (equal under
// Value.Equal, so one question), and NULL.
var literals = []sqlir.Value{
	sqlir.NewText("1994"), sqlir.NewInt(1994), sqlir.NewNumber(1994.5),
	sqlir.NewInt(0), sqlir.NewNumber(math.Copysign(0, -1)), sqlir.Null(),
}

// existsFamily is a cartesian product of exists questions over join paths,
// connectives, Preds/AndPreds splits of a predicate list, group-bys,
// havings and literal kinds.
func existsFamily() []sqlexec.ExistsQuery {
	cat := movieDB().Schema.Catalog()
	ms := sqlir.JoinOn{Left: movieCol("starring", "mid"), Right: movieCol("movie", "mid")}
	var paths []*sqlir.JoinPath
	for _, root := range []string{"movie", "movie", "starring"} {
		on := []sqlir.JoinOn{ms}
		if len(paths) == 0 {
			on = nil
		}
		jp, err := cat.Path(root, on...)
		if err != nil {
			panic(err)
		}
		paths = append(paths, jp)
	}
	year := movieCol("movie", "year")
	title := movieCol("movie", "title")
	var out []sqlexec.ExistsQuery
	for _, path := range paths {
		for _, conj := range []sqlir.LogicalOp{sqlir.LogicAnd, sqlir.LogicOr} {
			for _, lit := range literals {
				p1 := keysPred("movie", "year", sqlir.OpEq, lit)
				p2 := keysPred("movie", "title", sqlir.OpNe, sqlir.NewText("Heat"))
				for _, preds := range [][]sqlir.Predicate{nil, {p1}, {p1, p2}, {p2, p1}} {
					for split := 0; split <= len(preds); split++ {
						for _, groupBy := range [][]sqlir.ColumnRef{nil, {year}, {year, title}} {
							havings := [][]sqlir.HavingExpr{nil,
								{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
									Op: sqlir.OpGe, OpSet: true, Val: lit, ValSet: true}},
								{{Agg: sqlir.AggSum, AggSet: true, Col: year, ColSet: true,
									Op: sqlir.OpEq, OpSet: true, Val: lit, ValSet: true}},
							}
							for _, having := range havings {
								out = append(out, sqlexec.ExistsQuery{
									From: path, Conj: conj,
									Preds: preds[:split], AndPreds: preds[split:],
									GroupBy: groupBy, Havings: having,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Hashed keys must partition exists questions exactly as their canonical
// strings do: same string ⟺ same key, across hand-picked near-miss variants
// (moved literal, swapped predicate split, text vs number literal) and a
// generated family of a few thousand questions.
func TestExistsKeyAgreesWithExistsSig(t *testing.T) {
	path := existsFamily()[0].From // movie
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
			GroupBy: []sqlir.ColumnRef{movieCol("movie", "year")},
			Havings: []sqlir.HavingExpr{{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(2), ValSet: true}}},
		{From: path, Conj: sqlir.LogicAnd,
			GroupBy: []sqlir.ColumnRef{movieCol("movie", "year")},
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
	family := existsFamily()
	checkPartition(t, len(family),
		func(i int) string { return existsSig(family[i]) },
		func(i int) memoKey { return existsKey(family[i]) })
}

// memoKeys lists the keys a memo holds.
func memoKeys(bm *boolMemo) map[memoKey]bool {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	keys := make(map[memoKey]bool, len(bm.m))
	for k := range bm.m {
		keys[k] = true
	}
	return keys
}

// A verifier workload of three requests over one shared cache asks the same
// questions three times: every request reaches the same outcome, the later
// two answer the column-wise questions from the memos, and they add no key to
// either memo — a question hashes to the same key every time it is asked.
func TestVerifierWorkloadUnderDebugKeys(t *testing.T) {
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
	var first Outcome
	var colKeys, rowKeys map[memoKey]bool
	for i := 0; i < 3; i++ {
		v := NewWithCache(db, nil, sketch, nil, cache)
		out, err := v.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out
			colKeys, rowKeys = memoKeys(cache.col), memoKeys(cache.row)
			if !out.OK {
				t.Fatalf("first outcome = %+v, want pass", out)
			}
			if len(colKeys) == 0 {
				t.Fatal("the first request memoized no column question")
			}
			if st := v.Stats(); st.DBQueries <= 1 {
				t.Fatalf("first request DBQueries = %d, want the memoized questions plus the by-order gate", st.DBQueries)
			}
			continue
		}
		if out.OK != first.OK || out.Stage != first.Stage {
			t.Errorf("request %d outcome = %+v, want %+v", i, out, first)
		}
		// Only the final by-order gate, which is not memoized, reaches the
		// database again.
		if st := v.Stats(); st.DBQueries != 1 {
			t.Errorf("request %d DBQueries = %d, want 1 (the by-order gate)", i, st.DBQueries)
		}
		if got := memoKeys(cache.col); len(got) != len(colKeys) {
			t.Errorf("request %d: column memo holds %d keys, want %d", i, len(got), len(colKeys))
		}
		if got := memoKeys(cache.row); len(got) != len(rowKeys) {
			t.Errorf("request %d: row memo holds %d keys, want %d", i, len(got), len(rowKeys))
		}
	}
}

// Distinct column-check questions must hash to distinct keys, and repeated
// questions to the same key.
func TestColumnCellKeyDistinguishesQuestions(t *testing.T) {
	col := movieCol("movie", "year")
	other := movieCol("movie", "title")
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

// The column-check keys partition a generated family of questions — AVG or
// not, every column of the catalog and *, exact cells of every literal
// kind, ranges over every pair of numeric endpoints, the empty cell —
// exactly as their canonical strings do.
func TestColumnCellKeyAgreesWithCellSig(t *testing.T) {
	type question struct {
		avg  bool
		col  sqlir.ColumnRef
		cell tsq.Cell
	}
	var cells []tsq.Cell
	for _, v := range append(literals, sqlir.NewText(""), sqlir.NewText("NULL")) {
		cells = append(cells, tsq.Exact(v))
	}
	ends := []float64{-1, 0, math.Copysign(0, -1), 1994, 1994.5, 2000}
	for _, lo := range ends {
		for _, hi := range ends {
			cells = append(cells, tsq.Range(lo, hi))
		}
	}
	cells = append(cells, tsq.Empty())
	cols := []sqlir.ColumnRef{sqlir.Star}
	cat := movieDB().Schema.Catalog()
	for t := range cat.NumTables() {
		for ci := range cat.Columns(t) {
			cols = append(cols, cat.Column(t, ci))
		}
	}
	var family []question
	for _, avg := range []bool{false, true} {
		for _, col := range cols {
			for _, cell := range cells {
				family = append(family, question{avg, col, cell})
			}
		}
	}
	checkPartition(t, len(family),
		func(i int) string { q := family[i]; return cellSig(q.avg, q.col, q.cell) },
		func(i int) memoKey { q := family[i]; return columnCellKey(q.avg, q.col, q.cell) })
}

// A query built before the catalog intern clears runs on a database of its
// shape interned after it — accepted, with the same answers — and asks it
// the same memo keys, which read only ordinals. A column of a catalog of
// another shape fails at plan time with one text.
func TestCatalogInternIsSharedAcrossAClear(t *testing.T) {
	before := movieDB()
	q := sqlparse.MustParse(before.Schema, "SELECT title, year FROM movie JOIN starring ON starring.mid = movie.mid WHERE year > 1990")
	for i := range 70 {
		sqlir.InternCatalog([]sqlir.CatalogTable{{Name: fmt.Sprintf("clear%d", i), Columns: []string{"id"}}}, nil)
	}
	after := movieDB()
	if after.Schema.Catalog() == before.Schema.Catalog() || !after.Schema.Catalog().Same(before.Schema.Catalog()) {
		t.Fatal("the intern did not clear, or the shape changed")
	}
	same := sqlparse.MustParse(after.Schema, q.String())
	got, err := sqlexec.Execute(after, q)
	want, werr := sqlexec.Execute(after, same)
	if err != nil || werr != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("the earlier query answers %v (%v), the same query over the later catalog %v (%v)", got, err, want, werr)
	}

	tp := tsq.Tuple{tsq.Exact(text("Forrest Gump")), tsq.Range(1990, 2000)}
	a, b := newRowQuestion(q), newRowQuestion(same)
	a.shape(tp)
	b.shape(tp)
	if a.key(tp) != b.key(tp) || existsKey(a.build(tp)) != existsKey(b.build(tp)) {
		t.Error("one row question keyed apart across the two catalogs")
	}
	if columnCellKey(true, q.Select[1].Col, tp[1]) != columnCellKey(true, same.Select[1].Col, tp[1]) {
		t.Error("one column question keyed apart across the two catalogs")
	}

	other := storage.NewSchema(storage.NewTable("movie", "mid", storage.Column{Name: "mid", Type: sqlir.TypeNumber}))
	bad := q.Clone()
	bad.Select[0].Col = other.Catalog().MustCol("movie", "mid")
	const wantErr = "sqlexec: column movie.mid is not over the join path's catalog"
	for _, db := range []*storage.Database{before, after} {
		if _, err := sqlexec.Execute(db, bad); err == nil || err.Error() != wantErr {
			t.Errorf("a column of another shape: %v, want %q", err, wantErr)
		}
	}
}
