package sqlexec

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// FuzzExecuteBind checks the bind rule on generated queries. A
// randomColumnarQuery drawn from the fuzzed seed gets at most one
// fuzz-chosen defect:
//
//	1 a column reference moved to a table off the path (to a column of
//	  another catalog when the path holds every table),
//	2 a column name misspelled in the query's text,
//	3 an edge column name misspelled in the query's text,
//	4 an edge replaced by one disconnected from the tables bound before it.
//
// The last three never reach an executor. A column is its catalog's
// ordinals, so a name is resolved only at the boundary: the catalog
// (Catalog.Col) and the parser reject an unknown name with the catalog's
// one text. The catalog rejects a disconnected edge as the path is built:
// rebuilding the query's path with one fails with its one text. Without a
// defect (or when the query has no place to put it) the pipeline answers
// as the reference: DiffExecute is "". With defect 1, ExecuteCtx, AskCtx
// and ExistsCtx of the query's probe (bindProbe) fail with one text over
// columnarDB(seed, 100) and over columnarDB(seed, 0), before any row is
// read; wherever the reference fails, the text is the reference's. The
// reference evaluates lazily, so an error the unmutated query already
// raises there (a SUM over text) may come before the defect in its order:
// the comparison is made where the unmutated query runs clean on the
// reference.
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
		if sql, want, ok := misspell(full.Schema, q, defect%5, int(at)); ok {
			if got, err := sqlparse.Parse(full.Schema, sql); err == nil || err.Error() != want {
				t.Fatalf("defect %d: %s parsed to %v, error %v, want %q", defect%5, sql, got, err, want)
			}
			return
		}
		if root, ons, want, ok := breakPath(q.From, defect%5, int(at)); ok {
			if jp, err := full.Schema.Catalog().Path(root, ons...); err == nil || err.Error() != want {
				t.Fatalf("defect %d: path %v, error %v, want %q\n%s", defect%5, jp, err, want, q)
			}
			return
		}
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

// breakQuery applies column defect 1 to q at the at-th candidate place and
// reports whether it did.
func breakQuery(q *sqlir.Query, defect uint8, at int) bool {
	if defect != 1 {
		return false
	}
	refs := columnRefs(q)
	if len(refs) == 0 {
		return false // COUNT(*) alone
	}
	ref := refs[at%len(refs)]
	var off []sqlir.ColumnRef
	for _, c := range columnarCols {
		if !q.From.Set().Has(c.Table()) {
			off = append(off, c)
		}
	}
	if len(off) > 0 {
		*ref = off[at%len(off)]
	} else {
		*ref = otherCatalogDB().Schema.Catalog().MustCol("nope", "id")
	}
	return true
}

// misspell writes q as SQL with the name of the at-th column it reads
// (defect 2) or of the at-th column its edges join (defect 3) misspelled
// wherever it occurs, and gives the one text the catalog rejects the name
// with. It reports false for another defect, for a query without such a
// column, and for a query whose own text does not parse.
func misspell(schema *storage.Schema, q *sqlir.Query, defect uint8, at int) (sql, want string, ok bool) {
	var cols []sqlir.ColumnRef
	switch defect {
	case 2:
		for _, c := range columnRefs(q) {
			cols = append(cols, *c)
		}
	case 3:
		for _, e := range q.From.Edges() {
			cols = append(cols, e.Joined, e.New)
		}
	}
	if len(cols) == 0 {
		return "", "", false
	}
	if _, err := sqlparse.Parse(schema, q.String()); err != nil {
		return "", "", false
	}
	c := cols[at%len(cols)]
	table := schema.Catalog().Name(c.Table())
	_, err := schema.Catalog().Col(table, "nope")
	name := regexp.MustCompile(`\b` + regexp.QuoteMeta(c.String()) + `\b`)
	return name.ReplaceAllString(q.String(), table+".nope"), err.Error(), true
}

// breakPath writes jp's root and conditions with path defect 4 at the at-th
// edge, and the one text the catalog rejects it with. It reports false for
// another defect or a path without edges.
func breakPath(jp *sqlir.JoinPath, defect uint8, at int) (root string, ons []sqlir.JoinOn, want string, ok bool) {
	edges := jp.Edges()
	if defect != 4 || len(edges) == 0 {
		return "", nil, "", false
	}
	for _, e := range edges {
		ons = append(ons, jp.Written(e))
	}
	i := at % len(edges)
	// A condition on a table not bound before edge i: its first column
	// equal to itself.
	bound := jp.Tables()[:i+1]
	for t := range jp.Catalog().NumTables() {
		if !slices.Contains(bound, t) {
			c := jp.Catalog().Column(t, 0)
			ons[i] = sqlir.JoinOn{Left: c, Right: c}
			break
		}
	}
	return jp.Catalog().Name(jp.Tables()[0]), ons, fmt.Sprintf("sqlir: join condition %s joins no table joined before it", ons[i]), true
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
