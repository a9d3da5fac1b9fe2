package verify

import (
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/tsq"
)

// Verifiers created from one shared Cache reuse each other's column-wise
// answers (no repeated database work) and report only their own executor
// counters. The cache is bound to one epoch snapshot: an Insert into the
// live database never evicts its memos — a verifier on the next epoch's
// snapshot (with its own cache) sees the new row instead.
func TestSharedCacheAcrossVerifiers(t *testing.T) {
	live := movieDB()
	db := live.Snapshot()
	cache := NewCache(db)
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText},
		Tuples: []tsq.Tuple{{tsq.Exact(text("Interstellar"))}},
	}
	q, err := sqlparse.Parse(db.Schema, "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}

	v1 := NewWithCache(db, nil, sketch, nil, cache)
	out, err := v1.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Stage != StageByColumn {
		t.Fatalf("v1 outcome = %+v, want by-column rejection", out)
	}
	if st := v1.Stats(); st.DBQueries == 0 {
		t.Error("v1 should have executed the column check itself")
	}

	// Second request, same database: the column-wise answer is served from
	// the shared memo — no new verification query.
	v2 := NewWithCache(db, nil, sketch, nil, cache)
	out, err = v2.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Stage != StageByColumn {
		t.Fatalf("v2 outcome = %+v, want by-column rejection", out)
	}
	st := v2.Stats()
	if st.DBQueries != 0 {
		t.Errorf("v2 DBQueries = %d, want 0 (shared memo)", st.DBQueries)
	}
	if st.ColumnCache != 1 {
		t.Errorf("v2 ColumnCache = %d, want 1", st.ColumnCache)
	}

	// Insert the missing title into the live database: the pinned cache
	// keeps serving the old epoch's answer from its memo, and a verifier on
	// the next snapshot (with that snapshot's cache) accepts the query.
	live.Table("movie").MustInsert(num(9), text("Interstellar"), num(2014), num(677))
	v3 := NewWithCache(db, nil, sketch, nil, cache)
	out, err = v3.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Stage != StageByColumn {
		t.Fatalf("pinned v3 outcome = %+v, want by-column rejection at the old epoch", out)
	}
	if st := v3.Stats(); st.DBQueries != 0 {
		t.Errorf("pinned v3 DBQueries = %d, want 0 (memo survived the insert)", st.DBQueries)
	}
	db2 := live.Snapshot()
	v4 := NewWithCache(db2, nil, sketch, nil, NewCache(db2))
	out, err = v4.Verify(q)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatalf("fresh-epoch v4 outcome = %+v, want pass after insert", out)
	}
}

// Stats deltas: a verifier borrowing a warm shared cache must not report the
// previous requests' executor work as its own.
func TestSharedCacheStatsDelta(t *testing.T) {
	db := movieDB()
	cache := NewCache(db)
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText},
		Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump"))}},
	}
	q, err := sqlparse.Parse(db.Schema, "SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	v1 := NewWithCache(db, nil, sketch, nil, cache)
	if _, err := v1.Verify(q); err != nil {
		t.Fatal(err)
	}
	if st := v1.Stats(); st.StreamedExists == 0 {
		t.Skip("column check did not stream; delta assertion not applicable")
	}
	v2 := NewWithCache(db, nil, sketch, nil, cache)
	if st := v2.Stats(); st.StreamedExists != 0 || st.IndexHits != 0 {
		t.Errorf("fresh verifier on warm cache reports prior work: %+v", st)
	}
}
