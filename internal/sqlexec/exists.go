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
// through the streaming index-nested-loop pipeline; a probe that does not
// bind fails with its bind error, as Execute's queries do.
func Exists(db *storage.Database, eq ExistsQuery) (bool, error) {
	return ExistsCtx(context.Background(), db, eq)
}

// ExistsCtx is Exists under a request context: probe and row loops poll ctx
// at checkpoint boundaries and unwind with ctx.Err() when it is done.
func ExistsCtx(ctx context.Context, db *storage.Database, eq ExistsQuery) (bool, error) {
	return exists(ctx, db, eq, &discardCounters)
}

// exists is the body of Exists and JoinCache.ExistsCtx: predicate
// completeness checks, then the streaming pipeline.
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
	return streamExists(ctx, db, eq, pc)
}

func errIncomplete(p sqlir.Predicate) error {
	return fmt.Errorf("sqlexec: exists query has incomplete predicate %s", p)
}
