package sqlexec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// The question sink's oracle: for every query and sketch, AskCtx must give
// the answer and the error of Satisfies(ExecuteCtx(q)) — the result built
// in full and then scanned. Queries come from the generators the executor's
// own differential tests use, over seeded loadgen databases, the ±Inf- and
// NULL-heavy columnar database and the Spider tasks; sketches are drawn
// from each query's reference result so that they match it, nearly match
// it, or cannot match it.

// askDiff describes the first disagreement between AskCtx and the reference
// for one query under each sketch; "" means they agree.
func askDiff(jc *sqlexec.JoinCache, q *sqlir.Query, sketches []*tsq.TSQ) string {
	ctx := context.Background()
	for i, sk := range sketches {
		res, werr := jc.ExecuteCtx(ctx, q)
		want := werr == nil && sk.Satisfies(res)
		got, gerr := jc.AskCtx(ctx, q, sk.Matcher())
		if (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error() {
			return fmt.Sprintf("sketch %d %s: error %v, reference %v", i, sk, gerr, werr)
		}
		if got != want {
			return fmt.Sprintf("sketch %d %s: answer %v, reference %v", i, sk, got, want)
		}
	}
	return ""
}

// askSketches draws sketches for a result of the given width: no tuples,
// tuples copied from result rows (with cells left empty or widened into
// ranges), duplicate tuples, all-empty tuples, tuples absent from the
// result, limits around the row count, both sort flags, and type
// annotations that match, mismatch a column, or mismatch the width.
func askSketches(r *rand.Rand, width int, res *sqlexec.Result) []*tsq.TSQ {
	var rows [][]sqlir.Value
	var types []sqlir.Type
	if res != nil {
		rows, types = res.Rows, res.Types
	}
	cell := func(v sqlir.Value) tsq.Cell {
		switch k := r.Intn(6); {
		case k == 0 || v.IsNull():
			return tsq.Empty()
		case k == 1 && v.Kind == sqlir.KindNumber:
			return tsq.Range(v.Num-1, v.Num+float64(r.Intn(3)))
		default:
			return tsq.Exact(v)
		}
	}
	tuple := func() tsq.Tuple {
		tp := make(tsq.Tuple, width)
		if len(rows) == 0 || r.Intn(5) == 0 {
			for i := range tp {
				tp[i] = tsq.Exact(sqlir.NewText(fmt.Sprintf("absent-%d", r.Intn(3))))
				if r.Intn(2) == 0 {
					tp[i] = tsq.Exact(sqlir.NewNumber(float64(r.Intn(5))))
				}
			}
			return tp
		}
		row := rows[r.Intn(len(rows))]
		for i := range tp {
			tp[i] = cell(row[i])
		}
		return tp
	}
	limit := func() int {
		if r.Intn(2) == 0 {
			return 0
		}
		return max(1, len(rows)-1+r.Intn(3))
	}
	empty := make(tsq.Tuple, width)
	for i := range empty {
		empty[i] = tsq.Empty()
	}

	out := []*tsq.TSQ{{}, {Limit: limit()}}
	for n := 0; n < 4; n++ {
		sk := &tsq.TSQ{Sorted: r.Intn(2) == 0, Limit: limit()}
		for k := 1 + r.Intn(3); k > 0; k-- {
			sk.Tuples = append(sk.Tuples, tuple())
		}
		if len(types) > 0 && r.Intn(2) == 0 {
			sk.Types = append([]sqlir.Type(nil), types...)
		}
		out = append(out, sk)
	}
	dup := tuple()
	out = append(out,
		&tsq.TSQ{Tuples: []tsq.Tuple{dup, dup}, Sorted: r.Intn(2) == 0},
		&tsq.TSQ{Tuples: []tsq.Tuple{empty}, Limit: limit()},
		&tsq.TSQ{Tuples: []tsq.Tuple{empty, empty, empty}, Sorted: r.Intn(2) == 0},
	)
	if len(types) > 0 {
		flipped := append([]sqlir.Type(nil), types...)
		i := r.Intn(len(flipped))
		flipped[i] = map[sqlir.Type]sqlir.Type{sqlir.TypeText: sqlir.TypeNumber}[flipped[i]]
		if flipped[i] == sqlir.TypeUnknown {
			flipped[i] = sqlir.TypeText
		}
		out = append(out,
			&tsq.TSQ{Types: flipped, Tuples: []tsq.Tuple{tuple()}},
			&tsq.TSQ{Types: append(append([]sqlir.Type(nil), types...), sqlir.TypeText)},
		)
	}
	return out
}

// askCase runs one query through askDiff with sketches drawn from its
// reference result.
func askCase(t *testing.T, r *rand.Rand, db *storage.Database, q *sqlir.Query, extra ...*tsq.TSQ) {
	t.Helper()
	jc := sqlexec.NewJoinCache(db)
	res, _ := sqlexec.ExecuteReference(db, q)
	if d := askDiff(jc, q, append(askSketches(r, len(q.Select), res), extra...)); d != "" {
		t.Fatalf("%s\n%s", d, q)
	}
}

// askShape names a query's sink shape, for the coverage check.
func askShape(q *sqlir.Query) string {
	grouped := q.GroupByState == sqlir.ClausePresent || q.HasAggregate()
	ordered := q.OrderByState == sqlir.ClausePresent
	switch {
	case grouped && q.HavingState == sqlir.ClausePresent:
		return "grouped+having"
	case grouped:
		return "grouped"
	case ordered && q.Limit > 0:
		return "order+limit"
	case ordered:
		return "order"
	case q.Distinct:
		return "distinct"
	case q.Limit > 0:
		return "limit"
	default:
		return "flat"
	}
}

// TestAskAgreesOnGeneratedQueries: random complete queries over seeded
// loadgen databases and the columnar database, every sink shape.
func TestAskAgreesOnGeneratedQueries(t *testing.T) {
	seeds, n := int64(3), 150
	if testing.Short() {
		seeds, n = 2, 60
	}
	shapes := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		gen, err := loadgen.Generate(loadgen.Spec{Name: "ask", Tables: 4, Rows: 3000, NullRate: 0.2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := newQueryGen(seed, gen.DB)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			q, _ := g.completeQuery()
			shapes[askShape(q)]++
			askCase(t, r, gen.DB, q)
		}
		db := sqlexec.ColumnarDB(seed, 100)
		for i := 0; i < n; i++ {
			q := sqlexec.RandomColumnarQuery(r)
			shapes[askShape(q)]++
			askCase(t, r, db, q)
		}
	}
	for _, s := range []string{"flat", "distinct", "limit", "order", "order+limit", "grouped", "grouped+having"} {
		if shapes[s] == 0 {
			t.Errorf("no generated query has shape %s (%v)", s, shapes)
		}
	}
}

// TestAskAgreesOnSpiderTasks: every Spider task's gold query under the
// benchmark's full TSQ and the drawn sketches, and generated queries over
// the task's database under the same TSQ.
func TestAskAgreesOnSpiderTasks(t *testing.T) {
	tasks := dataset.SpiderDev().Tasks
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for i := 0; i < len(tasks); i += stride {
		task := tasks[i]
		r := rand.New(rand.NewSource(int64(i)))
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, int64(i))
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		askCase(t, r, task.DB, task.Gold, sk)
		g := newQueryGen(int64(i), task.DB)
		for k := 0; k < 3; k++ {
			q, _ := g.completeQuery()
			askCase(t, r, task.DB, q, sk)
		}
	}
}

// TestAskLeavesResultsAlone: an asked sink's memory is reused from one
// question to the next, and no result Execute or Preview returned shares
// it. Every Spider task's gold result, and a preview of it, must read the
// same after every other gold query was asked about.
func TestAskLeavesResultsAlone(t *testing.T) {
	ctx := context.Background()
	tasks := dataset.SpiderDev().Tasks
	if testing.Short() {
		tasks = tasks[:60]
	}
	type kept struct {
		res  *sqlexec.Result
		want string
	}
	var results []kept
	for _, task := range tasks {
		jc := sqlexec.NewJoinCache(task.DB)
		res, err := jc.ExecuteCtx(ctx, task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		pre, err := jc.PreviewCtx(ctx, task.Gold, 3)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		results = append(results, kept{res, fmt.Sprint(res)}, kept{pre, fmt.Sprint(pre)})
	}
	for i, task := range tasks {
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, int64(i))
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if _, err := sqlexec.NewJoinCache(task.DB).AskCtx(ctx, task.Gold, sk.Matcher()); err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
	}
	for i, k := range results {
		if got := fmt.Sprint(k.res); got != k.want {
			t.Errorf("%s: result %d changed after the questions:\n%s\nwas\n%s", tasks[i/2].ID, i%2, got, k.want)
		}
	}
}

// TestAskShapes pins one query per sink shape over the columnar database,
// including the two the generators reach only by chance: an ORDER BY key
// over the column the generator gives NaN, which reads NULL, beside +Inf and
// -Inf (the extremes of the order), and grouped by cat, an AVG over both
// infinities, which is NaN and reads NULL; and a SUM over text (an error
// the grouped sink must raise after its question has settled).
func TestAskShapes(t *testing.T) {
	db := sqlexec.ColumnarDB(1, 200)
	col := func(table, column string) sqlir.ColumnRef { return sqlexec.Col(db, table, column) }
	item := func(agg sqlir.AggFunc, c sqlir.ColumnRef) sqlir.SelectItem {
		return sqlir.SelectItem{Agg: agg, AggSet: true, Col: c, ColSet: true}
	}
	val, note, cat := col("item", "val"), col("item", "note"), col("item", "cat")
	base := func(sel ...sqlir.SelectItem) *sqlir.Query {
		return &sqlir.Query{KWSet: true, SelectCountSet: true, LimitSet: true,
			From: sqlexec.MustPath(db, "item"), Select: sel}
	}
	orderBy := func(q *sqlir.Query, key sqlir.OrderKey, limit int) *sqlir.Query {
		q.OrderByState = sqlir.ClausePresent
		q.OrderBy = &sqlir.OrderBy{Key: key, KeySet: true, DirSet: true}
		q.Limit = limit
		return q
	}
	groupBy := func(q *sqlir.Query, c sqlir.ColumnRef) *sqlir.Query {
		q.GroupByState, q.GroupBy = sqlir.ClausePresent, []sqlir.ColumnRef{c}
		return q
	}
	having := func(q *sqlir.Query, op sqlir.Op, k int) *sqlir.Query {
		q.HavingState = sqlir.ClausePresent
		q.Having = &sqlir.HavingExpr{Agg: sqlir.AggCount, AggSet: true, Col: sqlir.Star, ColSet: true,
			Op: op, OpSet: true, Val: sqlir.NewInt(k), ValSet: true}
		return q
	}
	distinct := base(item(sqlir.AggNone, note))
	distinct.Distinct = true
	limited := base(item(sqlir.AggNone, note), item(sqlir.AggNone, val))
	limited.Limit = 3
	sumText := groupBy(base(item(sqlir.AggNone, cat), item(sqlir.AggSum, note)), cat)

	res, err := sqlexec.ExecuteReference(db, base(item(sqlir.AggNone, val)))
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg bool
	for _, row := range res.Rows {
		if v := row[0]; v.Kind == sqlir.KindNumber {
			if v.IsNaN() {
				t.Fatal("item.val reads a NaN: a NaN was not stored as NULL")
			}
			pos, neg = pos || math.IsInf(v.Num, 1), neg || math.IsInf(v.Num, -1)
		}
	}
	if res, err = sqlexec.ExecuteReference(db, groupBy(base(item(sqlir.AggNone, cat), item(sqlir.AggAvg, val), item(sqlir.AggCount, val)), cat)); err != nil {
		t.Fatal(err)
	}
	avgNull := false
	for _, row := range res.Rows {
		avgNull = avgNull || row[1].IsNull() && row[2].Num > 0
	}
	if !pos || !neg || !avgNull {
		t.Fatalf("item.val holds +Inf %v, -Inf %v, a group averaging both %v: the cases below test less than they say", pos, neg, avgNull)
	}
	if _, err := sqlexec.ExecuteReference(db, sumText); err == nil {
		t.Fatal("SUM over text does not fail: the error case below tests nothing")
	}

	for name, q := range map[string]*sqlir.Query{
		"flat":                   base(item(sqlir.AggNone, note), item(sqlir.AggNone, cat)),
		"distinct":               distinct,
		"limit":                  limited,
		"order by NaN key":       orderBy(base(item(sqlir.AggNone, val), item(sqlir.AggNone, note)), sqlir.OrderKey{Col: val}, 0),
		"order by NaN key limit": orderBy(base(item(sqlir.AggNone, note), item(sqlir.AggNone, val)), sqlir.OrderKey{Col: val}, 4),
		"order by text":          orderBy(base(item(sqlir.AggNone, note)), sqlir.OrderKey{Col: note}, 0),
		"order by text limit":    orderBy(base(item(sqlir.AggNone, note)), sqlir.OrderKey{Col: note}, 2),
		"grouped having":         having(groupBy(base(item(sqlir.AggNone, cat), item(sqlir.AggCount, sqlir.Star)), cat), sqlir.OpGe, 2),
		"grouped ordered":        orderBy(groupBy(base(item(sqlir.AggNone, cat), item(sqlir.AggAvg, val)), cat), sqlir.OrderKey{Agg: sqlir.AggAvg, Col: val}, 0),
		"grouped ordered limit":  orderBy(groupBy(base(item(sqlir.AggNone, cat), item(sqlir.AggAvg, val)), cat), sqlir.OrderKey{Agg: sqlir.AggAvg, Col: val}, 2),
		"sum over text":          sumText,
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				askCase(t, rand.New(rand.NewSource(seed)), db, q)
			}
		})
	}
}
