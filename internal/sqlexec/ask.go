package sqlexec

import (
	"context"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Question is a yes/no question about a complete query's result that can be
// answered row by row — by-order verification's "does the result satisfy
// the TSQ?" (tsq.Matcher). AskCtx asks it while the result streams, so the
// result is never built; Result.Ask asks it of a built result, and both
// give the same answer.
type Question interface {
	// Columns is called once, before any row, with the result's column
	// types. It reports whether the answer is already settled.
	Columns(types []sqlir.Type) (settled bool)
	// Relevant reports whether a row can affect the answer other than by
	// being counted. It must depend on the row alone: AskCtx sorts only the
	// relevant rows of an ORDER BY result and counts the others.
	Relevant(row []sqlir.Value) bool
	// Row offers the result's next row, in result order, and reports
	// whether the answer is settled: no later row can change it. A row
	// Relevant rejects may be left out. row is only valid during the call.
	Row(row []sqlir.Value) (settled bool)
	// Answer is the answer for a result of rows rows, given every row
	// offered until the answer settled.
	Answer(rows int) bool
}

// Ask answers a question about a built result by offering its rows in
// order.
func (r *Result) Ask(q Question) bool {
	if !q.Columns(r.Types) {
		for _, row := range r.Rows {
			if q.Row(row) {
				break
			}
		}
	}
	return q.Answer(len(r.Rows))
}

// ask implements AskCtx: the streaming pipeline's sink asks the question
// (compiled.go). Answer and error are Result.Ask's over execute's, except
// that a context error arriving after the answer settled is not seen: the
// scan has stopped by then.
func ask(ctx context.Context, db *storage.Database, q *sqlir.Query, question Question, pc *pipelineCounters) (bool, error) {
	if q == nil || !q.Complete() {
		return false, errNotComplete(q)
	}
	_, out, err := executeCompiled(ctx, db, q, rowSink{ask: question}, pc)
	if err != nil {
		return false, err
	}
	return out.answer(), nil
}
