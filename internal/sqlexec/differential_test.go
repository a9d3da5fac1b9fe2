package sqlexec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Differential property tests: for seeded random SPJA queries over the
// Movies and MAS databases, the streaming/index execution pipeline must
// return results identical to the materializing reference executor, and
// Exists must agree with len(Execute(...).Rows) > 0. This is the
// bag-equivalence discipline backing the perf rewrite: the fast path is
// only trusted because it is provably result-identical to the slow one.

// queryGen draws random query fragments from a database's actual schema and
// value distributions, so predicates hit real selectivities.
type queryGen struct {
	r    *rand.Rand
	db   *storage.Database
	pool map[sqlir.ColumnRef][]sqlir.Value
}

func newQueryGen(seed int64, db *storage.Database) *queryGen {
	return &queryGen{
		r:    rand.New(rand.NewSource(seed)),
		db:   db,
		pool: map[sqlir.ColumnRef][]sqlir.Value{},
	}
}

// values returns (and caches) up to 40 distinct values of a column.
func (g *queryGen) values(c sqlir.ColumnRef) []sqlir.Value {
	if vs, ok := g.pool[c]; ok {
		return vs
	}
	vs, err := g.db.Table(c.Table).DistinctValues(c.Column, 40)
	if err != nil {
		vs = nil
	}
	g.pool[c] = vs
	return vs
}

// path builds a random connected join path of up to maxTables tables over
// the schema's FK-PK edges.
func (g *queryGen) path(maxTables int) *sqlir.JoinPath {
	s := g.db.Schema
	start := s.Tables[g.r.Intn(len(s.Tables))].Name
	jp := &sqlir.JoinPath{Tables: []string{start}}
	in := map[string]bool{start: true}
	want := 1 + g.r.Intn(maxTables)
	for len(jp.Tables) < want {
		var cands []sqlir.JoinEdge
		for _, fk := range s.ForeignKeys {
			e := sqlir.JoinEdge{FromTable: fk.Table, FromColumn: fk.Column, ToTable: fk.RefTable, ToColumn: fk.RefColumn}
			if in[e.FromTable] != in[e.ToTable] { // exactly one endpoint bound
				cands = append(cands, e)
			}
		}
		if len(cands) == 0 {
			break
		}
		e := cands[g.r.Intn(len(cands))]
		nt := e.ToTable
		if in[nt] {
			nt = e.FromTable
		}
		in[nt] = true
		jp.Tables = append(jp.Tables, nt)
		jp.Edges = append(jp.Edges, e)
	}
	return jp
}

// column picks a random column of a random table in the path.
func (g *queryGen) column(jp *sqlir.JoinPath) sqlir.ColumnRef {
	t := g.db.Table(jp.Tables[g.r.Intn(len(jp.Tables))])
	c := t.Columns[g.r.Intn(len(t.Columns))]
	return sqlir.ColumnRef{Table: t.Name, Column: c.Name}
}

// numericColumn picks a random numeric column in the path, or ok=false.
func (g *queryGen) numericColumn(jp *sqlir.JoinPath) (sqlir.ColumnRef, bool) {
	for try := 0; try < 12; try++ {
		c := g.column(jp)
		if ty, ok := g.db.Schema.Resolve(c); ok && ty == sqlir.TypeNumber {
			return c, true
		}
	}
	return sqlir.ColumnRef{}, false
}

// pred builds a random complete predicate on the path. Values are drawn
// from the column's own distribution most of the time, so probes succeed and
// fail in interesting proportions.
func (g *queryGen) pred(jp *sqlir.JoinPath) sqlir.Predicate {
	c := g.column(jp)
	ops := []sqlir.Op{sqlir.OpEq, sqlir.OpEq, sqlir.OpEq, sqlir.OpNe, sqlir.OpLt, sqlir.OpGt, sqlir.OpLe, sqlir.OpGe}
	op := ops[g.r.Intn(len(ops))]
	var val sqlir.Value
	vs := g.values(c)
	switch {
	case len(vs) > 0 && g.r.Intn(5) > 0:
		val = vs[g.r.Intn(len(vs))]
	case g.r.Intn(2) == 0:
		val = sqlir.NewNumber(float64(g.r.Intn(2000)))
	default:
		val = sqlir.NewText(fmt.Sprintf("nope-%d", g.r.Intn(50)))
	}
	return sqlir.Predicate{Col: c, ColSet: true, Op: op, OpSet: true, Val: val, ValSet: true}
}

// existsQuery builds a random verification-shaped existence probe:
// optionally OR-connected candidate predicates, conjoined example-cell
// constraints, and sometimes GROUP BY/HAVING.
func (g *queryGen) existsQuery() sqlexec.ExistsQuery {
	jp := g.path(3)
	eq := sqlexec.ExistsQuery{From: jp, Conj: sqlir.LogicAnd}
	if g.r.Intn(2) == 0 {
		n := 1 + g.r.Intn(3)
		if n >= 2 && g.r.Intn(2) == 0 {
			eq.Conj = sqlir.LogicOr
		}
		for i := 0; i < n; i++ {
			eq.Preds = append(eq.Preds, g.pred(jp))
		}
	}
	for i := g.r.Intn(3); i > 0; i-- {
		eq.AndPreds = append(eq.AndPreds, g.pred(jp))
	}
	if g.r.Intn(3) == 0 {
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			eq.GroupBy = append(eq.GroupBy, g.column(jp))
		}
	}
	if g.r.Intn(3) == 0 {
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			if h, ok := g.having(jp); ok {
				eq.Havings = append(eq.Havings, h)
			}
		}
	}
	return eq
}

// having builds a random complete HAVING condition.
func (g *queryGen) having(jp *sqlir.JoinPath) (sqlir.HavingExpr, bool) {
	ops := []sqlir.Op{sqlir.OpEq, sqlir.OpNe, sqlir.OpLt, sqlir.OpGt, sqlir.OpLe, sqlir.OpGe}
	op := ops[g.r.Intn(len(ops))]
	mk := func(agg sqlir.AggFunc, col sqlir.ColumnRef, val sqlir.Value) (sqlir.HavingExpr, bool) {
		return sqlir.HavingExpr{
			Agg: agg, AggSet: true, Col: col, ColSet: true,
			Op: op, OpSet: true, Val: val, ValSet: true,
		}, true
	}
	switch g.r.Intn(4) {
	case 0: // COUNT(*)
		return mk(sqlir.AggCount, sqlir.Star, sqlir.NewInt(g.r.Intn(6)))
	case 1: // COUNT(col)
		return mk(sqlir.AggCount, g.column(jp), sqlir.NewInt(g.r.Intn(6)))
	case 2: // MIN/MAX over any column
		aggs := []sqlir.AggFunc{sqlir.AggMin, sqlir.AggMax}
		c := g.column(jp)
		vs := g.values(c)
		if len(vs) == 0 {
			return sqlir.HavingExpr{}, false
		}
		return mk(aggs[g.r.Intn(2)], c, vs[g.r.Intn(len(vs))])
	default: // SUM/AVG over a numeric column
		c, ok := g.numericColumn(jp)
		if !ok {
			return sqlir.HavingExpr{}, false
		}
		aggs := []sqlir.AggFunc{sqlir.AggSum, sqlir.AggAvg}
		return mk(aggs[g.r.Intn(2)], c, sqlir.NewNumber(float64(g.r.Intn(4000))))
	}
}

// completeQuery builds a random complete SPJA query suitable for Execute:
// flat projections (sometimes DISTINCT, sometimes ordered by a column that is
// not projected), one- and two-column GROUP BY with any aggregate (SUM/AVG
// over text included, which must fail exactly where the reference fails),
// aggregates over the implicit single group, HAVING, AND/OR selections, and
// ORDER BY with and without LIMIT. orderIdx is the projection index of the
// ORDER BY key, or -1 when there is none or it is not projected.
func (g *queryGen) completeQuery() (*sqlir.Query, int) {
	jp := g.path(3)
	q := &sqlir.Query{KWSet: true, SelectCountSet: true, LimitSet: true, From: jp}
	item := func(agg sqlir.AggFunc, c sqlir.ColumnRef) sqlir.SelectItem {
		return sqlir.SelectItem{Agg: agg, AggSet: true, Col: c, ColSet: true}
	}
	anyAgg := func() sqlir.SelectItem {
		switch agg := sqlir.AggFunc(1 + g.r.Intn(5)); {
		case agg == sqlir.AggCount && g.r.Intn(2) == 0:
			return item(agg, sqlir.Star)
		case agg == sqlir.AggSum || agg == sqlir.AggAvg:
			if c, ok := g.numericColumn(jp); ok && g.r.Intn(8) > 0 {
				return item(agg, c)
			}
			return item(agg, g.column(jp))
		default:
			return item(agg, g.column(jp))
		}
	}

	shape := g.r.Intn(6) // 0-1 grouped, 2 implicit group, 3-5 flat
	switch {
	case shape <= 1:
		q.GroupByState = sqlir.ClausePresent
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			c := g.column(jp)
			q.GroupBy = append(q.GroupBy, c)
			q.Select = append(q.Select, item(sqlir.AggNone, c))
		}
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			q.Select = append(q.Select, anyAgg())
		}
		if h, ok := g.having(jp); ok && g.r.Intn(2) == 0 {
			q.HavingState = sqlir.ClausePresent
			q.Having = &h
		}
		q.Distinct = g.r.Intn(6) == 0
	case shape == 2:
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			q.Select = append(q.Select, anyAgg())
		}
	default:
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			q.Select = append(q.Select, item(sqlir.AggNone, g.column(jp)))
		}
		q.Distinct = g.r.Intn(4) == 0
	}

	if g.r.Intn(2) == 0 {
		n := 1 + g.r.Intn(3)
		w := sqlir.Where{ConjSet: true, CountSet: true}
		if n >= 2 && g.r.Intn(2) == 0 {
			w.Conj = sqlir.LogicOr
		}
		for i := 0; i < n; i++ {
			w.Preds = append(w.Preds, g.pred(jp))
		}
		q.WhereState = sqlir.ClausePresent
		q.Where = w
	}

	orderIdx := -1
	if g.r.Intn(2) == 0 {
		orderIdx = g.r.Intn(len(q.Select))
		key := sqlir.OrderKey{Agg: q.Select[orderIdx].Agg, Col: q.Select[orderIdx].Col}
		if shape > 2 && g.r.Intn(4) == 0 {
			orderIdx, key.Col = -1, g.column(jp)
		}
		q.OrderByState = sqlir.ClausePresent
		q.OrderBy = &sqlir.OrderBy{Key: key, KeySet: true, Desc: g.r.Intn(2) == 0, DirSet: true}
		if g.r.Intn(2) == 0 {
			q.Limit = 1 + g.r.Intn(10)
		}
	}
	return q, orderIdx
}

// rowStrings renders result rows for multiset comparison.
func rowStrings(res *sqlexec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	return out
}

func diffDBs(t *testing.T) map[string]*storage.Database {
	t.Helper()
	return map[string]*storage.Database{
		"movies": dataset.Movies(),
		"mas":    dataset.MAS(),
	}
}

// TestDifferentialExists checks streaming Exists (both the package-level
// entry point and the JoinCache one) against the materializing reference on
// random existence probes.
func TestDifferentialExists(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(1, db)
			jc := sqlexec.NewJoinCache(db)
			for i := 0; i < 600; i++ {
				eq := g.existsQuery()
				want, werr := sqlexec.ExistsReference(db, eq)
				got, gerr := sqlexec.Exists(db, eq)
				cached, cerr := jc.Exists(eq)
				if (werr != nil) != (gerr != nil) || (werr != nil) != (cerr != nil) {
					t.Fatalf("query %d: error divergence: ref=%v stream=%v cached=%v", i, werr, gerr, cerr)
				}
				if werr != nil {
					if werr.Error() != gerr.Error() {
						t.Fatalf("query %d: error text diverges: ref=%v stream=%v", i, werr, gerr)
					}
					continue
				}
				if got != want || cached != want {
					t.Fatalf("query %d: exists diverges: ref=%v stream=%v cached=%v eq=%+v", i, want, got, cached, eq)
				}
			}
		})
	}
}

// TestDifferentialExistsNullHeavy runs the loadgen probe workload plus
// random generator probes over a generated database whose nullable columns
// are ~35% NULL, so the NULL group, NULL-skipping aggregates and
// NULL-encoding group keys come up far more often than in the demo sets.
func TestDifferentialExistsNullHeavy(t *testing.T) {
	gen, err := loadgen.Generate(loadgen.Spec{Name: "nullheavy", Tables: 4, Rows: 8000, NullRate: 0.35}, 5)
	if err != nil {
		t.Fatal(err)
	}
	db := gen.DB
	probes := gen.Probes(60, 3)
	g := newQueryGen(13, db)
	for i := 0; i < 60; i++ {
		probes = append(probes, g.existsQuery())
	}
	for i, eq := range probes {
		want, werr := sqlexec.ExistsReference(db, eq)
		got, gerr := sqlexec.Exists(db, eq)
		if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("probe %d: error divergence: ref=%v stream=%v", i, werr, gerr)
		}
		if werr == nil && got != want {
			t.Fatalf("probe %d: exists diverges: ref=%v stream=%v eq=%+v", i, want, got, eq)
		}
	}
}

// TestDifferentialExistsAgreesWithExecute checks the §3.4 contract on the
// no-GROUP-BY shape: Exists(q) == (len(Execute(select-from-where).Rows) > 0).
func TestDifferentialExistsAgreesWithExecute(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(2, db)
			for i := 0; i < 300; i++ {
				jp := g.path(3)
				var preds []sqlir.Predicate
				conj := sqlir.LogicAnd
				n := 1 + g.r.Intn(3)
				if n >= 2 && g.r.Intn(2) == 0 {
					conj = sqlir.LogicOr
				}
				for j := 0; j < n; j++ {
					preds = append(preds, g.pred(jp))
				}
				q := &sqlir.Query{
					KWSet: true, SelectCountSet: true, LimitSet: true, From: jp,
					Select:     []sqlir.SelectItem{{Agg: sqlir.AggNone, AggSet: true, Col: g.column(jp), ColSet: true}},
					WhereState: sqlir.ClausePresent,
					Where:      sqlir.Where{Conj: conj, ConjSet: true, CountSet: true, Preds: preds},
				}
				res, err := sqlexec.Execute(db, q)
				if err != nil {
					t.Fatalf("query %d: execute: %v", i, err)
				}
				ok, err := sqlexec.Exists(db, sqlexec.ExistsQuery{From: jp, Conj: conj, Preds: preds})
				if err != nil {
					t.Fatalf("query %d: exists: %v", i, err)
				}
				if ok != (len(res.Rows) > 0) {
					t.Fatalf("query %d: exists=%v but execute returned %d rows", i, ok, len(res.Rows))
				}
			}
		})
	}
}

// TestDifferentialExecute is the oracle behind compiled execution: every
// generated complete query must give, through the compiled pipeline, exactly
// the columns, types, rows (in order, floats bit for bit) and error text of
// the materializing reference executor.
func TestDifferentialExecute(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(3, db)
			n := 400
			if testing.Short() {
				n = 120
			}
			failed := 0
			for i := 0; i < n; i++ {
				q, _ := g.completeQuery()
				if !q.Complete() {
					t.Fatalf("query %d: generator produced incomplete query %+v", i, q)
				}
				if d := sqlexec.DiffExecute(db, q); d != "" {
					t.Fatalf("query %d: %s\n%s", i, d, q)
				}
				if _, err := sqlexec.Execute(db, q); err != nil {
					failed++
				}
			}
			if failed == 0 || failed > n/2 {
				t.Errorf("%d of %d generated queries fail: the error paths are not being compared in proportion", failed, n)
			}
		})
	}
}

// TestDifferentialExecutePrefixSharing: a handle that has executed other
// queries answers exactly as a fresh one — nothing a query leaves behind can
// reach a later query's result. (The name is from when a shared handle
// extended cached join prefixes and served relations laid out by whichever
// equal-signature path came first; this test could then only ask for bag
// equality. What it pins now is that sharing a handle shares nothing.)
func TestDifferentialExecutePrefixSharing(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(5, db)
			shared := sqlexec.NewJoinCache(db)
			for i := 0; i < 300; i++ {
				q, _ := g.completeQuery()
				want, werr := sqlexec.ExecuteReference(db, q)
				got, gerr := shared.Execute(q)
				if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("query %d: error %v, reference %v", i, gerr, werr)
				}
				if werr == nil && !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
					t.Fatalf("query %d: shared handle diverges from the reference\n%s", i, q)
				}
			}
		})
	}
}

// TestSumOverTextRejected pins the evalAggregate fix: SUM/AVG over a text
// column is an error on both the reference and streaming paths, not a
// silent zero.
func TestSumOverTextRejected(t *testing.T) {
	db := dataset.Movies()
	q := &sqlir.Query{
		KWSet: true, SelectCountSet: true, LimitSet: true,
		From: &sqlir.JoinPath{Tables: []string{"actor"}},
		Select: []sqlir.SelectItem{{
			Agg: sqlir.AggSum, AggSet: true,
			Col: sqlir.ColumnRef{Table: "actor", Column: "name"}, ColSet: true,
		}},
	}
	if _, err := sqlexec.Execute(db, q); err == nil {
		t.Error("SUM over text column should error")
	}
	h := sqlir.HavingExpr{
		Agg: sqlir.AggAvg, AggSet: true,
		Col: sqlir.ColumnRef{Table: "actor", Column: "name"}, ColSet: true,
		Op: sqlir.OpGt, OpSet: true, Val: sqlir.NewNumber(0), ValSet: true,
	}
	eq := sqlexec.ExistsQuery{From: &sqlir.JoinPath{Tables: []string{"actor"}}, Havings: []sqlir.HavingExpr{h}}
	if _, err := sqlexec.Exists(db, eq); err == nil {
		t.Error("AVG over text column should error on the streaming path")
	}
	if _, err := sqlexec.ExistsReference(db, eq); err == nil {
		t.Error("AVG over text column should error on the reference path")
	}
}

// TestDifferentialColumnarVsRowPath: on random existence probes over Movies
// and MAS, the streaming pipeline and the materializing reference executor
// agree probe-for-probe, errors included. (The name is
// from when a row-based pipeline was compared in the same loop; it is
// deleted, the comparison against the reference is what remains.)
func TestDifferentialColumnarVsRowPath(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(7, db)
			for i := 0; i < 400; i++ {
				eq := g.existsQuery()
				colOK, colErr := sqlexec.Exists(db, eq)
				refOK, refErr := sqlexec.ExistsReference(db, eq)
				if (colErr != nil) != (refErr != nil) || (colErr != nil && colErr.Error() != refErr.Error()) {
					t.Fatalf("probe %d: error divergence: streaming=%v reference=%v", i, colErr, refErr)
				}
				if colErr == nil && refOK != colOK {
					t.Fatalf("probe %d: reference=%v streaming=%v for %+v", i, refOK, colOK, eq)
				}
			}
		})
	}
}
