package verify

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// wideDB is large enough that verification scans cross the execution layer's
// cancellation checkpoints, so a dead request context surfaces mid-check.
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
	const parents, children = 8, 5000
	for i := 0; i < parents; i++ {
		parent.MustInsert(num(float64(i)), text("p"))
	}
	for i := 0; i < children; i++ {
		child.MustInsert(num(float64(i)), num(float64(i%parents)), num(float64(i)))
	}
	return storage.NewDatabase("wide", s)
}

// TestCancelledVerifyDoesNotPoisonMemo: a verification cut down by its
// request context reports the cancellation, and the shared memo must not
// record that fate — a healthy verifier on the same Cache re-runs the checks
// and reaches the true outcome.
func TestCancelledVerifyDoesNotPoisonMemo(t *testing.T) {
	db := wideDB(t)
	cache := NewCache(db)
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber},
		Tuples: []tsq.Tuple{{tsq.Exact(text("p")), tsq.Exact(num(4999))}},
	}
	q := sqlparse.MustParse(db.Schema,
		"SELECT parent.name, child.v FROM parent JOIN child ON child.pid = parent.pid")

	want, err := NewWithCache(db, semrules.Default(), sketch, nil, NewCache(db)).Verify(q)
	if err != nil {
		t.Fatal(err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	v1 := NewWithCache(db, semrules.Default(), sketch, nil, cache)
	if _, err := v1.VerifyCtx(dead, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}

	v2 := NewWithCache(db, semrules.Default(), sketch, nil, cache)
	got, err := v2.Verify(q)
	if err != nil {
		t.Fatalf("healthy Verify after cancelled one: %v (memo poisoned?)", err)
	}
	if got.OK != want.OK || got.Stage != want.Stage {
		t.Fatalf("healthy Verify = %+v, want %+v (memo poisoned?)", got, want)
	}
}

// TestTransient: a request's fate is cancellation or deadline expiry, wrapped
// or not; nothing else is, a nil error and a bind error least of all.
func TestTransient(t *testing.T) {
	bind := errors.New("column item.val is not on the join path")
	for _, c := range []struct {
		err  error
		want bool
	}{
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("by-row probe: %w", context.Canceled), true},
		{fmt.Errorf("by-row probe: %w", context.DeadlineExceeded), true},
		{nil, false},
		{bind, false},
		{fmt.Errorf("by-row probe: %w", bind), false},
	} {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
