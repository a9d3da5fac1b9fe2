package sqlexec

import (
	"context"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// JoinCache is the executor handle for one database snapshot: the database
// plus the pipeline counters of everything executed through it. Despite the
// name it caches nothing — every probe and every complete query compiles to
// a streaming plan over the column vectors and their persistent indexes, so
// no join is ever materialized for a later call to find — and two calls
// never influence each other's results. (The name survives because bench/
// compiles against it.) The service layer shares one per database epoch
// across all requests; it is safe for concurrent use. Handing it a live,
// still-mutating database is not supported: the service layer hands it a
// frozen epoch snapshot (storage.Database.Snapshot).
type JoinCache struct {
	db *storage.Database
	pc pipelineCounters
}

// NewJoinCache builds an executor handle for a database (normally a frozen
// epoch snapshot; see the type comment).
func NewJoinCache(db *storage.Database) *JoinCache {
	return &JoinCache{db: db}
}

// Size returns the number of materialized join paths the handle retains:
// always 0. bench/ reads it (service.join_paths) and a PR that claims a gain
// may not edit bench/; it goes when that metric is retired.
func (c *JoinCache) Size() int { return 0 }

// Stats returns a snapshot of the pipeline counters accumulated by this
// handle.
func (c *JoinCache) Stats() PipelineStats {
	return c.pc.snapshot()
}

// Execute runs a complete query, counting its work on this handle.
func (c *JoinCache) Execute(q *sqlir.Query) (*Result, error) {
	return c.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx is Execute under a request context.
func (c *JoinCache) ExecuteCtx(ctx context.Context, q *sqlir.Query) (*Result, error) {
	return execute(ctx, c.db, q, 0, &c.pc)
}

// PreviewCtx is ExecuteCtx capped at the first maxRows result rows
// (maxRows <= 0 means no cap); a query without ORDER BY, grouping or
// aggregates stops scanning once the cap is reached.
func (c *JoinCache) PreviewCtx(ctx context.Context, q *sqlir.Query, maxRows int) (*Result, error) {
	return execute(ctx, c.db, q, maxRows, &c.pc)
}

// AskCtx answers question about q's result without building the result: the
// rows stream into the question, and the scan stops once its answer is
// settled (see Question and ask).
func (c *JoinCache) AskCtx(ctx context.Context, q *sqlir.Query, question Question) (bool, error) {
	return ask(ctx, c.db, q, question, &c.pc)
}

// Exists answers an exists query, counting its work on this handle.
func (c *JoinCache) Exists(eq ExistsQuery) (bool, error) {
	return c.ExistsCtx(context.Background(), eq)
}

// ExistsCtx is Exists under a request context.
func (c *JoinCache) ExistsCtx(ctx context.Context, eq ExistsQuery) (bool, error) {
	return exists(ctx, c.db, eq, &c.pc)
}
