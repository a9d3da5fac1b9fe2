package sqlexec

import (
	"context"
	"fmt"
	"slices"

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

// countClass is how a HAVING condition comparing COUNT(*) or COUNT(col) with
// a number moves as its group gains tuples. Under bag semantics a tuple stays
// in its group as rows arrive (Zhou et al.), so a count only grows and each
// such condition is settled for good from some count on. This one rule serves
// the single-group early exit (newGroupDecider) and the verification memo's
// reuse of a true answer in later epochs (TrueSurvivesAppends).
type countClass uint8

const (
	unclassified countClass = iota // SUM, AVG, MIN, MAX, a bare column, text: either way
	staysTrue                      // > and >=: true for good once the count reaches k
	staysFalse                     // < and <=: false for good once the count reaches k
	falseAbove                     // =: false for good once the count passes k
	trueAbove                      // !=: true for good once the count passes k; below, it can land on k
)

func classifyCount(h sqlir.HavingExpr) countClass {
	if h.Agg != sqlir.AggCount || h.Val.Kind != sqlir.KindNumber {
		return unclassified
	}
	switch h.Op {
	case sqlir.OpGt, sqlir.OpGe:
		return staysTrue
	case sqlir.OpLt, sqlir.OpLe:
		return staysFalse
	case sqlir.OpEq:
		return falseAbove
	case sqlir.OpNe:
		return trueAbove
	}
	return unclassified
}

// TrueSurvivesAppends reports whether a true answer to eq stays true whatever
// rows are appended: its tuples and groups only grow, so it does when every
// HAVING condition stays true once reached, and when there is none.
func (eq ExistsQuery) TrueSurvivesAppends() bool {
	return !slices.ContainsFunc(eq.Havings, func(h sqlir.HavingExpr) bool { return classifyCount(h) != staysTrue })
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
