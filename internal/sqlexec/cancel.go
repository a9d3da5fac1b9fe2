// Cooperative cancellation for the execution paths. Synthesis is
// interactive: an abandoned or deadline-expired request must unwind
// mid-scan in milliseconds, not at operator boundaries, so every row loop —
// the streaming scan, and the reference executor's join, filter and group
// loops — ticks a checkpoint that polls the request context once per
// checkpointRows units of work. The poll amortizes to a counter increment
// and a mask per row; context.Background() requests pay essentially nothing.
package sqlexec

import "context"

// checkpointRows is the cancellation granularity: rows (or index probes)
// processed between context polls. At ~10ns/row of scan work, 1024 rows
// bounds cancel-to-checkpoint latency around 10µs while keeping the
// amortized cost of a poll below 1% of the loop body.
const checkpointRows = 1024

// canceller amortizes context polls over tight row loops. The zero value is
// invalid; build with newCanceller.
type canceller struct {
	ctx  context.Context
	work uint32
}

func newCanceller(ctx context.Context) canceller { return canceller{ctx: ctx} }

// tick counts one unit of work and polls the context at checkpoint
// boundaries, returning the context's error when the request is done.
func (c *canceller) tick() error {
	c.work++
	if c.work&(checkpointRows-1) != 0 {
		return nil
	}
	return c.ctx.Err()
}
