package sqlexec

import (
	"context"
	"fmt"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// ExistsQuery is the shape of the verifier's column-wise and row-wise
// verification queries (Examples 3.5 and 3.6): SELECT 1 FROM <path>
// WHERE (<preds joined by Conj>) AND <and-preds> [GROUP BY <cols>
// HAVING <conds>] LIMIT 1. AndPreds carries the example-tuple cell
// constraints, which are conjoined with the candidate query's own WHERE
// clause regardless of its connective; Having conditions are always
// conjoined.
type ExistsQuery struct {
	From     *sqlir.JoinPath
	Conj     sqlir.LogicalOp
	Preds    []sqlir.Predicate
	AndPreds []sqlir.Predicate
	GroupBy  []sqlir.ColumnRef
	Havings  []sqlir.HavingExpr
}

// Exists reports whether the query produces at least one row (the LIMIT 1
// early-exit the paper uses to keep verification cheap, §3.4). Probes run
// through the streaming index-nested-loop pipeline; query shapes the
// pipeline cannot compile fall back to materialize-then-filter, which is
// also kept as the reference oracle for differential tests.
func Exists(db *storage.Database, eq ExistsQuery) (bool, error) {
	return ExistsCtx(context.Background(), db, eq)
}

// ExistsCtx is Exists under a request context: probe and row loops poll ctx
// at checkpoint boundaries and unwind with ctx.Err() when it is done.
func ExistsCtx(ctx context.Context, db *storage.Database, eq ExistsQuery) (bool, error) {
	return exists(ctx, db, eq, &discardCounters)
}

// exists is the shared Exists driver: predicate completeness checks, the
// streaming pipeline, then — for shapes that do not compile — the reference
// executor over a freshly materialized join (counted in JoinsBuilt).
func exists(ctx context.Context, db *storage.Database, eq ExistsQuery, pc *pipelineCounters) (bool, error) {
	for _, p := range eq.Preds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	for _, p := range eq.AndPreds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	if ok, handled, err := streamExists(ctx, db, eq, pc); handled {
		pc.add(&pc.streamed, 1)
		return ok, err
	}
	pc.add(&pc.fallback, 1)
	pc.add(&pc.joinsBuilt, 1)
	rel, err := join(ctx, db, eq.From)
	if err != nil {
		return false, err
	}
	return existsOn(ctx, db, rel, eq)
}

func errIncomplete(p sqlir.Predicate) error {
	return fmt.Errorf("sqlexec: exists query has incomplete predicate %s", p)
}

// existsOn evaluates an exists query against a pre-materialized relation.
func existsOn(ctx context.Context, db *storage.Database, rel *relation, eq ExistsQuery) (bool, error) {
	w := sqlir.Where{Conj: eq.Conj, ConjSet: true, Preds: eq.Preds, CountSet: true}
	wAnd := sqlir.Where{Conj: sqlir.LogicAnd, ConjSet: true, Preds: eq.AndPreds, CountSet: true}
	cc := newCanceller(ctx)

	// match evaluates WHERE (Preds by Conj) AND (AndPreds conjoined).
	match := func(tp tuple) (bool, error) {
		if err := cc.tick(); err != nil {
			return false, err
		}
		if len(eq.Preds) > 0 {
			ok, err := evalWhere(db, rel, tp, w)
			if err != nil || !ok {
				return false, err
			}
		}
		if len(eq.AndPreds) > 0 {
			ok, err := evalWhere(db, rel, tp, wAnd)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}

	if len(eq.GroupBy) == 0 && len(eq.Havings) == 0 {
		// Short-circuit on the first matching joined row.
		for _, tp := range rel.tuples {
			ok, err := match(tp)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}

	var rows []tuple
	for _, tp := range rel.tuples {
		ok, err := match(tp)
		if err != nil {
			return false, err
		}
		if ok {
			rows = append(rows, tp)
		}
	}
	groups, err := groupRows(db, rel, rows, eq.GroupBy)
	if err != nil {
		return false, err
	}
	for _, g := range groups {
		if len(g) == 0 && len(eq.GroupBy) > 0 {
			continue
		}
		pass := true
		for _, h := range eq.Havings {
			hv, err := evalAggregate(db, rel, g, h.Agg, h.Col)
			if err != nil {
				return false, err
			}
			if !h.Op.Eval(hv, h.Val) {
				pass = false
				break
			}
		}
		if pass && (len(g) > 0 || len(eq.GroupBy) == 0) {
			return true, nil
		}
	}
	return false, nil
}
