// Package sqlexec executes complete SPJA queries (the paper's task scope,
// §2.5) against the in-memory storage engine: inner FK-PK joins, flat AND/OR
// selection, grouping with the five aggregates, HAVING, ORDER BY, LIMIT and
// DISTINCT. The verifier's column-wise and row-wise verification queries
// (Examples 3.5 and 3.6) run through the same engine via Exists.
//
// Every query and probe runs on one executor: it compiles to a streaming
// plan (stream.go) over the column vectors. A query that does not bind — a
// malformed join path, a column that is unknown or outside the path, an
// aggregate the engine lacks — fails when its plan is built, whatever the
// data, with the text the materializing reference executor gives for the
// same defect. That reference lives in the package's tests, as the oracle
// the pipeline is differential-tested against.
package sqlexec

import (
	"context"
	"fmt"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Result is a materialized query result.
type Result struct {
	Columns []string
	Types   []sqlir.Type
	Rows    [][]sqlir.Value
}

// Execute runs a complete query and materializes its result.
func Execute(db *storage.Database, q *sqlir.Query) (*Result, error) {
	return ExecuteCtx(context.Background(), db, q)
}

// ExecuteCtx is Execute under a request context: the scan polls ctx at
// checkpoint boundaries and unwinds with ctx.Err().
func ExecuteCtx(ctx context.Context, db *storage.Database, q *sqlir.Query) (*Result, error) {
	return execute(ctx, db, q, 0, &discardCounters)
}

// execute compiles a complete query onto the streaming pipeline
// (compiled.go) and builds its result, cut at maxRows when maxRows > 0.
func execute(ctx context.Context, db *storage.Database, q *sqlir.Query, maxRows int, pc *pipelineCounters) (*Result, error) {
	if q == nil || !q.Complete() {
		return nil, errNotComplete(q)
	}
	sink := &rowSink{limit: maxRows}
	if err := executeCompiled(ctx, db, q, sink, pc); err != nil {
		return nil, err
	}
	res := &Result{Types: sink.types, Rows: sink.result()}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.String())
	}
	return res, nil
}

func errNotComplete(q *sqlir.Query) error {
	return fmt.Errorf("sqlexec: query is not complete: %v", q)
}
