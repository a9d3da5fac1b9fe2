package verify

import (
	"context"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// CrossCheckByOrder makes every by-order question asked from now on also be
// answered the way it was before the question sink — Satisfies over
// ExecuteCtx's whole result — and hands both answers to report, which may
// be called from several goroutines at once. Verification still uses the
// streamed answer. restore undoes the wrapping.
func CrossCheckByOrder(report func(q *sqlir.Query, sketch *tsq.TSQ, got, want bool, gotErr, wantErr error)) (restore func()) {
	prev := askByOrder
	askByOrder = func(ctx context.Context, jc *sqlexec.JoinCache, q *sqlir.Query, sketch *tsq.TSQ) (bool, error) {
		got, gerr := prev(ctx, jc, q, sketch)
		res, werr := jc.ExecuteCtx(ctx, q)
		report(q, sketch, got, werr == nil && sketch.Satisfies(res), gerr, werr)
		return got, gerr
	}
	return func() { askByOrder = prev }
}

// CrossCheckByRow hands report every by-row answer given from now on,
// memoized or not, with its question built in full: whether the memo key
// hashed in place equals existsKey of that question, and the answer and
// error of a fresh ExistsCtx of it. report may be called from several
// goroutines at once. restore undoes the hook.
func CrossCheckByRow(report func(eq sqlexec.ExistsQuery, keyed, answer, fresh bool, freshErr error)) (restore func()) {
	prev := byRowChecked
	byRowChecked = func(ctx context.Context, jc *sqlexec.JoinCache, key memoKey, eq sqlexec.ExistsQuery, answer bool) {
		fresh, err := jc.ExistsCtx(ctx, eq)
		report(eq, key == existsKey(eq), answer, fresh, err)
	}
	return func() { byRowChecked = prev }
}
