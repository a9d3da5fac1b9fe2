package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// randomDB builds a seeded single-table database for property tests.
func randomDB(seed int64, rows int) *storage.Database {
	r := rand.New(rand.NewSource(seed))
	items := storage.NewTable("items", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "grp", Type: sqlir.TypeText},
		storage.Column{Name: "val", Type: sqlir.TypeNumber},
	)
	for i := 0; i < rows; i++ {
		items.MustInsert(
			sqlir.NewInt(i),
			sqlir.NewText(string(rune('a'+r.Intn(4)))),
			sqlir.NewInt(r.Intn(100)),
		)
	}
	return storage.NewDatabase("rand", storage.NewSchema(items))
}

func exec(t *testing.T, db *storage.Database, sql string) *Result {
	t.Helper()
	q, err := sqlparse.Parse(db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := Execute(db, q)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// Property: selection is monotone — adding an AND predicate never grows the
// result set, and the filtered set is a subset of the base.
func TestPropSelectionMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 50)
		base := exec(t, db, "SELECT id FROM items WHERE val > 20")
		narrowed := exec(t, db, "SELECT id FROM items WHERE val > 20 AND val < 80")
		if len(narrowed.Rows) > len(base.Rows) {
			t.Fatalf("seed %d: narrowed %d > base %d", seed, len(narrowed.Rows), len(base.Rows))
		}
		baseIDs := map[float64]bool{}
		for _, r := range base.Rows {
			baseIDs[r[0].Num] = true
		}
		for _, r := range narrowed.Rows {
			if !baseIDs[r[0].Num] {
				t.Fatalf("seed %d: row %v not in base", seed, r)
			}
		}
	}
}

// Property: OR is the union of its disjuncts.
func TestPropOrIsUnion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 50)
		left := exec(t, db, "SELECT id FROM items WHERE val < 30")
		right := exec(t, db, "SELECT id FROM items WHERE val > 70")
		both := exec(t, db, "SELECT id FROM items WHERE val < 30 OR val > 70")
		want := map[float64]bool{}
		for _, r := range left.Rows {
			want[r[0].Num] = true
		}
		for _, r := range right.Rows {
			want[r[0].Num] = true
		}
		if len(both.Rows) != len(want) {
			t.Fatalf("seed %d: OR size %d, union size %d", seed, len(both.Rows), len(want))
		}
	}
}

// Property: GROUP BY partitions — group COUNTs sum to the filtered row count.
func TestPropGroupPartition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 60)
		all := exec(t, db, "SELECT COUNT(*) FROM items")
		grouped := exec(t, db, "SELECT grp, COUNT(*) FROM items GROUP BY grp")
		sum := 0.0
		for _, r := range grouped.Rows {
			sum += r[1].Num
		}
		if sum != all.Rows[0][0].Num {
			t.Fatalf("seed %d: group counts sum %v != total %v", seed, sum, all.Rows[0][0].Num)
		}
	}
}

// Property: LIMIT k returns min(k, n) rows and a prefix of the unlimited
// ordering.
func TestPropLimitPrefix(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 30)
		full := exec(t, db, "SELECT id FROM items ORDER BY val DESC")
		for _, k := range []int{1, 3, 10, 100} {
			lim := exec(t, db, fmt.Sprintf("SELECT id FROM items ORDER BY val DESC LIMIT %d", k))
			want := k
			if len(full.Rows) < k {
				want = len(full.Rows)
			}
			if len(lim.Rows) != want {
				t.Fatalf("seed %d k %d: got %d rows, want %d", seed, k, len(lim.Rows), want)
			}
			// Prefix check on the order key values (ids may tie on val,
			// but stable sort makes the full prefix deterministic).
			for i, r := range lim.Rows {
				if !r[0].Equal(full.Rows[i][0]) {
					t.Fatalf("seed %d k %d: row %d differs", seed, k, i)
				}
			}
		}
	}
}

// Property: ORDER BY yields a monotone key sequence.
func TestPropOrderMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 40)
		asc := exec(t, db, "SELECT val FROM items ORDER BY val ASC")
		for i := 1; i < len(asc.Rows); i++ {
			if asc.Rows[i-1][0].Compare(asc.Rows[i][0]) > 0 {
				t.Fatalf("seed %d: ASC violated at %d", seed, i)
			}
		}
		desc := exec(t, db, "SELECT val FROM items ORDER BY val DESC")
		for i := 1; i < len(desc.Rows); i++ {
			if desc.Rows[i-1][0].Compare(desc.Rows[i][0]) < 0 {
				t.Fatalf("seed %d: DESC violated at %d", seed, i)
			}
		}
	}
}

// Property: DISTINCT result has no duplicate rows and the same value set as
// the non-distinct projection.
func TestPropDistinct(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 50)
		all := exec(t, db, "SELECT grp FROM items")
		dis := exec(t, db, "SELECT DISTINCT grp FROM items")
		seen := map[string]bool{}
		for _, r := range dis.Rows {
			k := r[0].String()
			if seen[k] {
				t.Fatalf("seed %d: duplicate %v in DISTINCT", seed, r)
			}
			seen[k] = true
		}
		for _, r := range all.Rows {
			if !seen[r[0].String()] {
				t.Fatalf("seed %d: value %v missing from DISTINCT", seed, r)
			}
		}
	}
}

// Property: Exists(q) agrees with len(Execute(select-from-where)) > 0.
func TestPropExistsAgreesWithExecute(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 30)
		for _, cut := range []float64{-1, 25, 50, 75, 101} {
			res := exec(t, db, fmt.Sprintf("SELECT id FROM items WHERE val > %g", cut))
			ok, err := Exists(db, ExistsQuery{
				From: MustPath(db, "items"),
				Preds: []sqlir.Predicate{
					pred(db, "items", "val", sqlir.OpGt, sqlir.NewNumber(cut)),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if ok != (len(res.Rows) > 0) {
				t.Fatalf("seed %d cut %g: exists %v vs rows %d", seed, cut, ok, len(res.Rows))
			}
		}
	}
}

// Property: AVG lies within [MIN, MAX].
func TestPropAvgWithinMinMax(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		db := randomDB(seed, 40)
		res := exec(t, db, "SELECT MIN(val), AVG(val), MAX(val) FROM items")
		r := res.Rows[0]
		if r[1].Num < r[0].Num || r[1].Num > r[2].Num {
			t.Fatalf("seed %d: AVG %v outside [%v, %v]", seed, r[1], r[0], r[2])
		}
	}
}

// ---------------------------------------------------------------------------
// Columnar differential properties: for random SPJA existence probes, the
// vectorized streaming pipeline (stream.go) and the materializing reference
// executor must agree answer-for-answer — including on NULL-heavy columns
// (stressing the null bitmaps) and duplicate-heavy text columns (stressing
// the dictionary encoding), and across text-keyed FK joins (stressing
// dictionary-code probe translation).

// columnarDB builds a seeded three-table database with a text primary key
// (text-text join steps), a numeric FK chain, ~40% NULLs in two columns,
// text drawn from a tiny alphabet so dictionary codes repeat heavily, and a
// sprinkling of NaN (stored as NULL), -0, +Inf and -Inf in item.val (group
// keys, DISTINCT keys, ORDER BY keys, and aggregate inputs whose SUM or AVG
// over both infinities is NaN, which reads NULL).
func columnarDB(seed int64, rows int) *storage.Database {
	r := rand.New(rand.NewSource(seed))
	cat := storage.NewTable("cat", "name",
		storage.Column{Name: "name", Type: sqlir.TypeText},
		storage.Column{Name: "rank", Type: sqlir.TypeNumber},
	)
	owner := storage.NewTable("owner", "oid",
		storage.Column{Name: "oid", Type: sqlir.TypeNumber},
		storage.Column{Name: "region", Type: sqlir.TypeText},
	)
	item := storage.NewTable("item", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "cat", Type: sqlir.TypeText},
		storage.Column{Name: "oid", Type: sqlir.TypeNumber},
		storage.Column{Name: "val", Type: sqlir.TypeNumber},
		storage.Column{Name: "note", Type: sqlir.TypeText},
	)
	s := storage.NewSchema(cat, owner, item)
	s.AddForeignKey("item", "cat", "cat", "name")
	s.AddForeignKey("item", "oid", "owner", "oid")

	cats := []string{"alpha", "beta", "gamma", "delta"}
	for i, c := range cats {
		cat.MustInsert(sqlir.NewText(c), sqlir.NewInt(i))
	}
	for i := 0; i < 6; i++ {
		owner.MustInsert(sqlir.NewInt(i), sqlir.NewText(string(rune('p'+i%3))))
	}
	notes := []string{"dup", "dup", "dup", "rare", "x y", "'quoted'", ""}
	for i := 0; i < rows; i++ {
		catV, oidV, valV, noteV := sqlir.Null(), sqlir.NewInt(r.Intn(7)), sqlir.Null(), sqlir.Null()
		if r.Intn(10) < 9 {
			catV = sqlir.NewText(cats[r.Intn(len(cats))])
		}
		if r.Intn(10) < 6 { // ~40% NULL
			valV = sqlir.NewInt(r.Intn(5))
			switch r.Intn(12) {
			case 0:
				valV = sqlir.NewNumber(math.NaN())
			case 1:
				valV = sqlir.NewNumber(math.Copysign(0, -1))
			case 2:
				valV = sqlir.NewNumber(math.Inf(1))
			case 3:
				valV = sqlir.NewNumber(math.Inf(-1))
			}
		}
		if r.Intn(10) < 6 {
			noteV = sqlir.NewText(notes[r.Intn(len(notes))])
		}
		item.MustInsert(sqlir.NewInt(i), catV, oidV, valV, noteV)
	}
	return storage.NewDatabase("columnar", storage.NewSchema(cat, owner, item))
}

// randomColumnarExists draws one random existence probe over columnarDB's
// join path: mixed AND/OR predicates across all columns and ops, sometimes
// grouped with HAVING aggregates.
func randomColumnarExists(r *rand.Rand) ExistsQuery {
	cols, vals := columnarCols, columnarVals
	ops := []sqlir.Op{sqlir.OpEq, sqlir.OpNe, sqlir.OpLt, sqlir.OpGt, sqlir.OpLe, sqlir.OpGe, sqlir.OpLike}
	randPred := func() sqlir.Predicate {
		c := cols[r.Intn(len(cols))]
		return sqlir.Predicate{
			Col: c, ColSet: true,
			Op: ops[r.Intn(len(ops))], OpSet: true,
			Val: vals[r.Intn(len(vals))], ValSet: true,
		}
	}
	eq := ExistsQuery{
		From: columnarPaths[3], // item, cat, owner
		Conj: sqlir.LogicAnd,
	}
	if r.Intn(2) == 0 {
		eq.Conj = sqlir.LogicOr
	}
	for n := r.Intn(3); n > 0; n-- {
		eq.Preds = append(eq.Preds, randPred())
	}
	for n := r.Intn(2); n > 0; n-- {
		eq.AndPreds = append(eq.AndPreds, randPred())
	}
	if r.Intn(3) == 0 {
		eq.GroupBy = append(eq.GroupBy, cols[r.Intn(len(cols))])
		aggs := []sqlir.AggFunc{sqlir.AggCount, sqlir.AggSum, sqlir.AggMin, sqlir.AggMax, sqlir.AggAvg}
		h := sqlir.HavingExpr{
			Agg: aggs[r.Intn(len(aggs))], AggSet: true,
			Col: cols[r.Intn(len(cols))], ColSet: true,
			Op: ops[r.Intn(4)], OpSet: true,
			Val: vals[r.Intn(4)], ValSet: true,
		}
		if r.Intn(3) == 0 {
			h.Agg, h.Col = sqlir.AggCount, sqlir.Star
		}
		eq.Havings = append(eq.Havings, h)
	}
	return eq
}

// Property: the columnar streaming pipeline and the materializing reference
// executor agree on every random probe — same answer, and an error on one
// side only when the other errs too. (The name is from when a row-based
// pipeline stood between the two as a third leg.)
func TestPropColumnarRowReferenceAgree(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := columnarDB(seed, 120)
		r := rand.New(rand.NewSource(seed + 1000))
		for i := 0; i < 150; i++ {
			eq := randomColumnarExists(r)

			colOK, colErr := Exists(db, eq)
			refOK, refErr := ExistsReference(db, eq)
			if (refErr == nil) != (colErr == nil) {
				t.Fatalf("seed %d probe %d: reference err=%v, streaming err=%v", seed, i, refErr, colErr)
			}
			if refErr == nil && refOK != colOK {
				t.Fatalf("seed %d probe %d: reference=%v streaming=%v for %+v", seed, i, refOK, colOK, eq)
			}
		}
	}
}

// columnarCols are the columns randomColumnarExists and randomColumnarQuery
// draw from; columnarVals the literals.
var (
	columnarCols = func() []sqlir.ColumnRef {
		db := columnarDB(0, 0)
		return []sqlir.ColumnRef{
			Col(db, "item", "val"),
			Col(db, "item", "note"),
			Col(db, "item", "cat"),
			Col(db, "cat", "rank"),
			Col(db, "cat", "name"),
			Col(db, "owner", "region"),
		}
	}()
	columnarVals = []sqlir.Value{
		sqlir.NewInt(0), sqlir.NewInt(2), sqlir.NewInt(4), sqlir.NewInt(99),
		sqlir.NewText("alpha"), sqlir.NewText("dup"), sqlir.NewText("rare"),
		sqlir.NewText("absent"), sqlir.NewText("%u%"), sqlir.NewText("p"),
		sqlir.Null(),
	}
)

// columnarPaths are join paths over columnarDB in every root and edge order:
// each lays its tuples out differently, and the compiled pipeline must
// reproduce each layout, not a canonical one.
var columnarPaths = func() []*sqlir.JoinPath {
	db := columnarDB(0, 0)
	const ic, io = "item.cat = cat.name", "item.oid = owner.oid"
	return []*sqlir.JoinPath{
		MustPath(db, "item"),
		MustPath(db, "item", ic),
		MustPath(db, "cat", ic),
		MustPath(db, "item", ic, io),
		MustPath(db, "item", io, ic),
		MustPath(db, "owner", io, ic),
		MustPath(db, "cat", ic, io),
	}
}()

// randomColumnarQuery draws one complete query over columnarDB. Shapes, by
// design rather than by luck: DISTINCT; one- and two-column GROUP BY over
// NULL / ±Inf / -0 keys; aggregates over the implicit group, also over empty
// input (a NULL literal matches nothing); HAVING COUNT(*) > 1000 in front of
// a SUM over text (the SUM must never be evaluated) and HAVINGs that let it
// through (it must fail, with the reference's message); ORDER BY on a
// three-valued column (ties everywhere) with and without LIMIT, on a column
// holding ±Inf, on a column that is not projected; LIMIT
// without ORDER BY; OR selections; LIKE.
func randomColumnarQuery(r *rand.Rand) *sqlir.Query {
	jp := columnarPaths[r.Intn(len(columnarPaths))]
	col := func() sqlir.ColumnRef {
		for {
			if c := columnarCols[r.Intn(len(columnarCols))]; jp.Set().Has(c.Table()) {
				return c
			}
		}
	}
	item := func(agg sqlir.AggFunc, c sqlir.ColumnRef) sqlir.SelectItem {
		return sqlir.SelectItem{Agg: agg, AggSet: true, Col: c, ColSet: true}
	}
	anyAgg := func() sqlir.SelectItem {
		if r.Intn(4) == 0 {
			return item(sqlir.AggCount, sqlir.Star)
		}
		return item(sqlir.AggFunc(1+r.Intn(5)), col())
	}
	q := &sqlir.Query{KWSet: true, SelectCountSet: true, LimitSet: true, From: jp}

	shape := r.Intn(6) // 0-1 grouped, 2 implicit group, 3-5 flat
	switch {
	case shape <= 1:
		q.GroupByState = sqlir.ClausePresent
		for n := 1 + r.Intn(2); n > 0; n-- {
			c := col()
			q.GroupBy = append(q.GroupBy, c)
			q.Select = append(q.Select, item(sqlir.AggNone, c))
		}
		for n := 1 + r.Intn(2); n > 0; n-- {
			q.Select = append(q.Select, anyAgg())
		}
		if r.Intn(2) == 0 {
			h := anyAgg()
			q.HavingState = sqlir.ClausePresent
			q.Having = &sqlir.HavingExpr{
				Agg: h.Agg, AggSet: true, Col: h.Col, ColSet: true,
				Op: sqlir.Op(r.Intn(6)), OpSet: true, Val: sqlir.NewInt(r.Intn(4)), ValSet: true,
			}
			if r.Intn(3) == 0 { // fails every group before any projection is read
				q.Having.Agg, q.Having.Col, q.Having.Op, q.Having.Val = sqlir.AggCount, sqlir.Star, sqlir.OpGt, sqlir.NewInt(1000)
			}
		}
		q.Distinct = r.Intn(5) == 0
	case shape == 2:
		for n := 1 + r.Intn(3); n > 0; n-- {
			q.Select = append(q.Select, anyAgg())
		}
	default:
		for n := 1 + r.Intn(3); n > 0; n-- {
			q.Select = append(q.Select, item(sqlir.AggNone, col()))
		}
		q.Distinct = r.Intn(3) == 0
	}

	if n := r.Intn(4); n > 0 {
		w := sqlir.Where{ConjSet: true, CountSet: true}
		if n >= 2 && r.Intn(2) == 0 {
			w.Conj = sqlir.LogicOr
		}
		for ; n > 0; n-- {
			w.Preds = append(w.Preds, sqlir.Predicate{
				Col: col(), ColSet: true,
				Op: sqlir.Op(r.Intn(7)), OpSet: true,
				Val: columnarVals[r.Intn(len(columnarVals))], ValSet: true,
			})
		}
		q.WhereState, q.Where = sqlir.ClausePresent, w
	}

	if r.Intn(2) == 0 {
		s := q.Select[r.Intn(len(q.Select))]
		key := sqlir.OrderKey{Agg: s.Agg, Col: s.Col}
		if shape > 2 && r.Intn(3) == 0 {
			key.Col = col() // need not be projected
		}
		q.OrderByState = sqlir.ClausePresent
		q.OrderBy = &sqlir.OrderBy{Key: key, KeySet: true, Desc: r.Intn(2) == 0, DirSet: true}
	}
	if r.Intn(2) == 0 { // with and without ORDER BY; 0 is "no LIMIT"
		q.Limit = []int{0, 1, 2, 5, 50}[r.Intn(5)]
	}
	return q
}

// Property: every complete query over the NULL-heavy, duplicate-text,
// ±Inf-sprinkled database gives exactly the reference executor's rows, order,
// header and error through the compiled pipeline.
func TestPropColumnarExecuteAgree(t *testing.T) {
	seeds, n := int64(6), 250
	if testing.Short() {
		seeds, n = 3, 100
	}
	var failed, empty, total int
	for seed := int64(0); seed < seeds; seed++ {
		db := columnarDB(seed, 100)
		r := rand.New(rand.NewSource(seed + 2000))
		for i := 0; i < n; i++ {
			q := randomColumnarQuery(r)
			if !q.Complete() {
				t.Fatalf("seed %d query %d: generator produced an incomplete query: %s", seed, i, q)
			}
			if d := DiffExecute(db, q); d != "" {
				t.Fatalf("seed %d query %d: %s\n%s", seed, i, d, q)
			}
			res, err := Execute(db, q)
			total++
			switch {
			case err != nil:
				failed++
			case len(res.Rows) == 0:
				empty++
			}
		}
	}
	// The generator must keep reaching the lazy-error and empty-input cases.
	if failed < total/50 || empty < total/50 || failed+empty > total*3/4 {
		t.Errorf("of %d queries %d fail and %d are empty: the mix has drifted", total, failed, empty)
	}
}

// A NaN is stored as NULL, so no comparison holds of the row it was given
// to: both executors answer false for every operator and literal, ±Inf
// included (a NaN literal is refused where literals enter).
func TestPropNaNComparisonSemantics(t *testing.T) {
	tb := storage.NewTable("n", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "v", Type: sqlir.TypeNumber},
	)
	tb.MustInsert(sqlir.NewInt(1), sqlir.NewNumber(math.NaN()))
	db := storage.NewDatabase("nan", storage.NewSchema(tb))

	for _, op := range []sqlir.Op{sqlir.OpEq, sqlir.OpNe, sqlir.OpLt, sqlir.OpGt, sqlir.OpLe, sqlir.OpGe} {
		for _, val := range []sqlir.Value{sqlir.NewNumber(5), sqlir.NewNumber(math.Inf(1)), sqlir.NewNumber(math.Inf(-1))} {
			eq := ExistsQuery{
				From: MustPath(db, "n"),
				Preds: []sqlir.Predicate{{
					Col: Col(db, "n", "v"), ColSet: true,
					Op: op, OpSet: true, Val: val, ValSet: true,
				}},
			}
			refOK, refErr := ExistsReference(db, eq)
			colOK, colErr := Exists(db, eq)
			if refErr != nil || colErr != nil {
				t.Fatalf("op %s val %s: errors ref=%v col=%v", op, val, refErr, colErr)
			}
			if colOK || refOK {
				t.Errorf("op %s val %s: ref=%v columnar=%v, want false: the NaN was not stored as NULL", op, val, refOK, colOK)
			}
		}
	}
}
