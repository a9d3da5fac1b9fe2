package sqlexec

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// wideDB builds a parent/child pair whose join materializes well past the
// cancellation checkpoint granularity, so a dead request context is
// guaranteed to be noticed mid-build.
func wideDB(t *testing.T) *storage.Database {
	t.Helper()
	parent := storage.NewTable("parent", "pid",
		storage.Column{Name: "pid", Type: sqlir.TypeNumber},
		storage.Column{Name: "name", Type: sqlir.TypeText},
	)
	child := storage.NewTable("child", "cid",
		storage.Column{Name: "cid", Type: sqlir.TypeNumber},
		storage.Column{Name: "pid", Type: sqlir.TypeNumber},
		storage.Column{Name: "v", Type: sqlir.TypeNumber},
	)
	s := storage.NewSchema(parent, child)
	s.AddForeignKey("child", "pid", "parent", "pid")
	const parents, children = 8, 4 * checkpointRows
	for i := 0; i < parents; i++ {
		parent.MustInsert(num(float64(i)), text("p"))
	}
	for i := 0; i < children; i++ {
		child.MustInsert(num(float64(i)), num(float64(i%parents)), num(float64(i)))
	}
	return storage.NewDatabase("wide", s)
}

// pollCtx is a context that reports cancellation from its dieAt-th Err poll
// on and counts the polls, so a test can tell at which checkpoint an
// executor noticed and whether it kept working afterwards. (Done never
// fires: the executors poll Err.)
type pollCtx struct {
	context.Context
	polls, dieAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.dieAt {
		return context.Canceled
	}
	return nil
}

const wideJoin = "SELECT parent.name FROM parent JOIN child ON child.pid = parent.pid"

// mustEqualReference runs q through run and requires the reference
// executor's exact result.
func mustEqualReference(t *testing.T, db *storage.Database, q *sqlir.Query, label string, run func() (*Result, error)) {
	t.Helper()
	want, err := executeReference(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s returned %d rows, want the reference's %d, equal cell for cell", label, len(got.Rows), len(want.Rows))
	}
}

// TestCancelledRequestDoesNotPoisonJoinCache: a cancelled ExecuteCtx returns
// the context's error within the checkpoint bound — before any work when the
// context is dead on arrival, at the very checkpoint that sees it die
// mid-scan — and the next call on the same handle succeeds in full: one
// request's fate is never another's.
func TestCancelledRequestDoesNotPoisonJoinCache(t *testing.T) {
	db := wideDB(t)
	q := sqlparse.MustParse(db.Schema, wideJoin)
	c := NewJoinCache(db)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecuteCtx(dead, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.IndexProbes != 0 {
		t.Errorf("dead-on-arrival request probed %d posting lists", st.IndexProbes)
	}

	// The scan ticks once per parent and per joined child: 8 + 4*checkpointRows
	// units, a poll every checkpointRows of them after the one on entry.
	for dieAt := 2; dieAt <= 4; dieAt++ {
		dying := &pollCtx{Context: context.Background(), dieAt: dieAt}
		if _, err := c.ExecuteCtx(dying, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("ExecuteCtx dying at poll %d: err = %v, want context.Canceled", dieAt, err)
		}
		if dying.polls != dieAt {
			t.Errorf("request dying at poll %d was polled %d times: it must return at the checkpoint that sees it die", dieAt, dying.polls)
		}
	}

	// A probe with no witness and no posting list to seed it scans every row;
	// dying mid-scan it must report the cancellation, never a definitive false.
	eq := ExistsQuery{
		From:  MustPath(db, "child"),
		Preds: []sqlir.Predicate{pred(db, "child", "v", sqlir.OpLt, num(0))},
	}
	dying := &pollCtx{Context: context.Background(), dieAt: 2}
	if _, err := c.ExistsCtx(dying, eq); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExistsCtx dying mid-scan: err = %v, want context.Canceled", err)
	}

	mustEqualReference(t, db, q, "healthy Execute after cancelled ones", func() (*Result, error) { return c.Execute(q) })
}

// TestExpiredDeadlineDoesNotPoisonJoinCache is the deadline-expiry twin: the
// error surfaces as DeadlineExceeded, for complete queries — plain and
// grouped — and probes alike, and the next calls succeed, sums bit for bit.
func TestExpiredDeadlineDoesNotPoisonJoinCache(t *testing.T) {
	db := wideDB(t)
	q := sqlparse.MustParse(db.Schema, wideJoin)
	grouped := sqlparse.MustParse(db.Schema,
		"SELECT child.pid, COUNT(*), SUM(child.v) FROM child GROUP BY child.pid HAVING COUNT(*) >= 256")

	c := NewJoinCache(db)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, q := range []*sqlir.Query{q, grouped} {
		if _, err := c.ExecuteCtx(expired, q); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ExecuteCtx under expired deadline: err = %v, want DeadlineExceeded\n%s", err, q)
		}
	}

	eq := ExistsQuery{
		From:  MustPath(db, "child"),
		Preds: []sqlir.Predicate{pred(db, "child", "v", sqlir.OpEq, num(-1))},
	}
	if _, err := c.ExistsCtx(expired, eq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExistsCtx under expired deadline: err = %v, want DeadlineExceeded", err)
	}
	ok, err := c.Exists(eq)
	if err != nil {
		t.Fatalf("healthy Exists after expired one: %v", err)
	}
	if ok {
		t.Fatal("Exists found a row that is not there")
	}
	mustEqualReference(t, db, q, "healthy Execute after expired one", func() (*Result, error) { return c.Execute(q) })
	mustEqualReference(t, db, grouped, "healthy grouped Execute after expired one", func() (*Result, error) { return c.Execute(grouped) })
}
