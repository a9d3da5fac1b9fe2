package sqlexec

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// FuzzExecuteBind checks the bind rule on generated queries. A
// randomColumnarQuery drawn from the fuzzed seed gets at most one
// fuzz-chosen defect:
//
//	1 a column reference moved to a table off the path (renamed when the
//	  path holds every table),
//	2 a column reference renamed,
//	3 an edge column renamed,
//	4 an edge replaced by one disconnected from the tables bound before it.
//
// Without a defect (or when the query has no place to put it) the pipeline
// answers as the reference: DiffExecute is "". With one, ExecuteCtx, AskCtx
// and ExistsCtx of the query's probe (bindProbe) fail with one text over
// columnarDB(seed, 100) and over columnarDB(seed, 0), before any row is
// read; wherever the reference fails, the text is the reference's. The
// reference evaluates lazily, so an error the unmutated query already raises
// there (a SUM over text) may come before the defect in its order: the
// comparison is made where the unmutated query runs clean on the reference.
//
// Run it with `go test -run '^$' -fuzz '^FuzzExecuteBind$' -fuzztime 20s
// ./internal/sqlexec/`; the seed corpus runs with the package's tests.
func FuzzExecuteBind(f *testing.F) {
	for seed := int64(0); seed < 30; seed++ {
		f.Add(seed, uint8(seed%5), uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, defect, at uint8) {
		q := randomColumnarQuery(rand.New(rand.NewSource(seed)))
		full, empty := columnarDB(seed, 100), columnarDB(seed, 0)
		bad := q.Clone()
		if !breakQuery(bad, defect%5, int(at)) {
			for _, db := range []*storage.Database{full, empty} {
				if d := DiffExecute(db, q); d != "" {
					t.Fatalf("%s\n%s", d, q)
				}
			}
			return
		}
		ctx := context.Background()
		var want string
		for _, db := range []*storage.Database{full, empty} {
			c := NewJoinCache(db)
			_, err := c.ExecuteCtx(ctx, bad)
			if err == nil {
				t.Fatalf("defect %d over %d rows: no error\n%s", defect%5, db.Table("item").NumRows(), bad)
			}
			if want == "" {
				want = err.Error()
			}
			_, aerr := c.AskCtx(ctx, bad, anyRow{})
			_, xerr := c.ExistsCtx(ctx, bindProbe(bad))
			for _, e := range []error{err, aerr, xerr} {
				if e == nil || e.Error() != want {
					t.Fatalf("defect %d over %d rows: error %v, want %q\n%s", defect%5, db.Table("item").NumRows(), e, want, bad)
				}
			}
			if st := c.Stats(); st != (PipelineStats{}) {
				t.Fatalf("a query that does not bind read rows: %+v\n%s", st, bad)
			}
			if _, err := executeReference(ctx, db, q); err == nil {
				if _, rerr := executeReference(ctx, db, bad); rerr != nil && rerr.Error() != want {
					t.Fatalf("error %q, reference %q\n%s", want, rerr, bad)
				}
			}
			if _, err := ExistsReference(db, bindProbe(q)); err == nil {
				if _, rerr := ExistsReference(db, bindProbe(bad)); rerr != nil && rerr.Error() != want {
					t.Fatalf("probe error %q, reference %q\n%s", want, rerr, bad)
				}
			}
		}
	})
}

// breakQuery applies defect (0 = none) to q at the at-th candidate place and
// reports whether it did.
func breakQuery(q *sqlir.Query, defect uint8, at int) bool {
	switch defect {
	case 1, 2:
		refs := columnRefs(q)
		if len(refs) == 0 {
			return false // COUNT(*) alone
		}
		ref := refs[at%len(refs)]
		var off []sqlir.ColumnRef
		for _, c := range columnarCols {
			if !q.From.Contains(c.Table) {
				off = append(off, c)
			}
		}
		if defect == 1 && len(off) > 0 {
			*ref = off[at%len(off)]
		} else {
			ref.Column = "nope"
		}
		return true
	case 3, 4:
		edges := q.From.Edges
		if len(edges) == 0 {
			return false
		}
		i := at % len(edges)
		if defect == 3 {
			if at&1 == 0 {
				edges[i].FromColumn = "nope"
			} else {
				edges[i].ToColumn = "nope"
			}
			return true
		}
		bound := []string{q.From.Tables[0]}
		for _, e := range edges[:i] {
			bound = append(bound, e.FromTable, e.ToTable)
		}
		var unbound []string
		for _, t := range []string{"item", "cat", "owner", "ghost"} {
			if !slices.Contains(bound, t) {
				unbound = append(unbound, t)
			}
		}
		edges[i] = sqlir.JoinEdge{FromTable: unbound[0], FromColumn: "id", ToTable: unbound[1], ToColumn: "id"}
		return true
	}
	return false
}

// columnRefs lists every concrete column reference a query reads.
func columnRefs(q *sqlir.Query) []*sqlir.ColumnRef {
	var refs []*sqlir.ColumnRef
	add := func(c *sqlir.ColumnRef) {
		if !c.IsStar() {
			refs = append(refs, c)
		}
	}
	for i := range q.Select {
		add(&q.Select[i].Col)
	}
	if q.WhereState == sqlir.ClausePresent {
		for i := range q.Where.Preds {
			add(&q.Where.Preds[i].Col)
		}
	}
	for i := range q.GroupBy {
		add(&q.GroupBy[i])
	}
	if q.HavingState == sqlir.ClausePresent {
		add(&q.Having.Col)
	}
	if q.OrderByState == sqlir.ClausePresent {
		add(&q.OrderBy.Key.Col)
	}
	return refs
}

// bindProbe is the existence probe that reads every column q reads: q's path,
// WHERE and GROUP BY, and a condition per projection and ORDER BY key — a
// predicate on a flat query's column, a HAVING on a grouped query's
// aggregate, the shapes verifyByRow gives its probes.
func bindProbe(q *sqlir.Query) ExistsQuery {
	eq := ExistsQuery{From: q.From, Conj: sqlir.LogicAnd, GroupBy: q.GroupBy}
	if q.WhereState == sqlir.ClausePresent {
		eq.Conj, eq.Preds = q.Where.Conj, q.Where.Preds
	}
	if q.HavingState == sqlir.ClausePresent {
		eq.Havings = append(eq.Havings, *q.Having)
	}
	grouped := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(q.OrderByState == sqlir.ClausePresent && q.OrderBy.Key.Agg != sqlir.AggNone)
	read := func(agg sqlir.AggFunc, col sqlir.ColumnRef) {
		if grouped {
			eq.Havings = append(eq.Havings, sqlir.HavingExpr{Agg: agg, AggSet: true, Col: col, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(0), ValSet: true})
		} else {
			eq.AndPreds = append(eq.AndPreds, sqlir.Predicate{Col: col, ColSet: true,
				Op: sqlir.OpGe, OpSet: true, Val: sqlir.NewInt(0), ValSet: true})
		}
	}
	for _, s := range q.Select {
		read(s.Agg, s.Col)
	}
	if q.OrderByState == sqlir.ClausePresent {
		read(q.OrderBy.Key.Agg, q.OrderBy.Key.Col)
	}
	return eq
}
