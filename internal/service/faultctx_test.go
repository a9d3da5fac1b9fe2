package service

import (
	"context"
	"sync/atomic"
	"time"
)

// faultCtx is a request context a test drives by poll index, in the manner
// of sqlexec's pollCtx. Mid-request only the executor polls Err (a scan's
// checkpoints and the entry check of every streamed run, all inside a
// memo's computation); the enumerator, admission and context.AfterFunc read
// Done. So the at-th Err poll is a fixed point of the request's work, and
// there the context fires: Done closes and Err returns err from then on.
//
// A context with a deadline holds its at-th poll instead — a slow probe —
// until the deadline passes, then fires with context.DeadlineExceeded; a
// test that releases the hold first lets the request go on, never fired.
// Done stays open until the at-th poll, so the deadline always expires
// there, however fast the machine is.
//
// A request driven by one must carry no Input.Deadline and run on an engine
// with no DefaultDeadline or MaxDeadline: Synthesize would wrap it in a
// WithTimeout, and the executor would poll the wrapper instead.
type faultCtx struct {
	context.Context // Background: no values
	at              int64
	err             error
	deadline        time.Time
	polls           atomic.Int64
	fired           atomic.Bool
	reached         chan struct{} // closed when the at-th poll begins
	release         chan struct{}
	done            chan struct{}
}

// cancelAt returns a context cancelled at its at-th Err poll.
func cancelAt(at int64) *faultCtx {
	return newFaultCtx(at, context.Canceled, time.Time{})
}

// holdAt returns a context whose at-th Err poll holds until d from now and
// then expires.
func holdAt(at int64, d time.Duration) *faultCtx {
	return newFaultCtx(at, context.DeadlineExceeded, time.Now().Add(d))
}

func newFaultCtx(at int64, err error, deadline time.Time) *faultCtx {
	return &faultCtx{
		Context:  context.Background(),
		at:       at,
		err:      err,
		deadline: deadline,
		reached:  make(chan struct{}),
		release:  make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (c *faultCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

func (c *faultCtx) Done() <-chan struct{} { return c.done }

func (c *faultCtx) Err() error {
	if c.polls.Add(1) == c.at && c.wait() {
		c.fired.Store(true)
		close(c.done)
	}
	if c.fired.Load() {
		return c.err
	}
	return nil
}

// wait holds the at-th poll until the deadline, if there is one, and
// reports whether the context is to fire: false only when the test released
// the hold first.
func (c *faultCtx) wait() bool {
	close(c.reached)
	if c.deadline.IsZero() {
		return true
	}
	t := time.NewTimer(time.Until(c.deadline))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.release:
		return false
	}
}

// Release ends the hold without firing; the held poll and every later one
// answer nil.
func (c *faultCtx) Release() { close(c.release) }
