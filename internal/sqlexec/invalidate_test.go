package sqlexec

import (
	"reflect"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// A long-lived JoinCache is bound to one immutable epoch snapshot: a write
// to the live database never touches it. Readers that want the new rows
// take a new snapshot and a new handle; readers pinned to the old epoch keep
// their pre-write answers.
func TestJoinCachePinnedEpochSurvivesInsert(t *testing.T) {
	db := movieDB()
	snap := db.Snapshot()
	c := NewJoinCache(snap)

	eq := ExistsQuery{
		From:  MustPath(db, "movie"),
		Preds: []sqlir.Predicate{pred(db, "movie", "title", sqlir.OpEq, text("Interstellar"))},
	}
	if ok, err := c.Exists(eq); err != nil || ok {
		t.Fatalf("Exists before insert = %v, %v; want false", ok, err)
	}

	q := sqlparse.MustParse(db.Schema, "SELECT title FROM movie")
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Rows)

	db.Table("movie").MustInsert(num(9), text("Interstellar"), num(2014), num(677))

	// The pinned cache still answers at its epoch.
	if ok, err := c.Exists(eq); err != nil || ok {
		t.Errorf("pinned Exists after insert = %v, %v; want false (old epoch)", ok, err)
	}
	res, err = c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before {
		t.Errorf("pinned Execute after insert returned %d rows, want %d", len(res.Rows), before)
	}

	// A cache on the next snapshot sees the new row.
	c2 := NewJoinCache(db.Snapshot())
	if ok, err := c2.Exists(eq); err != nil || !ok {
		t.Errorf("fresh-epoch Exists after insert = %v, %v; want true", ok, err)
	}
	res, err = c2.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before+1 {
		t.Errorf("fresh-epoch Execute returned %d rows, want %d", len(res.Rows), before+1)
	}
}

// A bulk append to the live database during an in-flight session must not
// change what the pinned epoch's handle answers, and there is nothing for it
// to evict: the handle holds no materialized join before or after.
func TestJoinCacheZeroEvictionsOnBulkAppend(t *testing.T) {
	db := movieDB()
	snap := db.Snapshot()
	c := NewJoinCache(snap)
	q := sqlparse.MustParse(db.Schema,
		"SELECT actor.name FROM actor JOIN starring ON starring.aid = actor.aid")
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Rows)

	if _, err := db.Append("starring", []storage.ColumnData{
		{Nums: []float64{9}},
		{Nums: []float64{2}},
		{Nums: []float64{3}},
	}); err != nil {
		t.Fatal(err)
	}

	res, err = c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before {
		t.Errorf("pinned joined rows after append = %d, want %d", len(res.Rows), before)
	}
	if st := c.Stats(); c.Size() != 0 || st.JoinsBuilt != 0 {
		t.Errorf("handle retains %d join paths, built %d; want none", c.Size(), st.JoinsBuilt)
	}

	// And the new epoch's handle sees the appended row.
	c2 := NewJoinCache(db.Snapshot())
	res, err = c2.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before+1 {
		t.Errorf("fresh-epoch joined rows = %d, want %d", len(res.Rows), before+1)
	}
}

// Regression for history-dependent results. Two queries over the same table
// and edge set but a different first table list their joined tuples in
// different orders, and so differ wherever order shows: plain row order, and
// which group wins a tie under ORDER BY COUNT(*) ... LIMIT 1. A handle that
// has run one of them must still answer the other exactly as Execute does on
// a database nothing has run on — in either order of execution. (The
// relation cache this handle used to be keyed them alike and served whichever
// layout was built first.)
func TestExecuteIsHistoryFree(t *testing.T) {
	const join = " ON starring.aid = actor.aid JOIN movie ON starring.mid = movie.mid"
	pairs := [][2]string{
		{"SELECT actor.name, movie.title FROM starring JOIN actor" + join,
			"SELECT actor.name, movie.title FROM actor JOIN starring" + join},
		{"SELECT movie.year FROM starring JOIN actor" + join +
			" WHERE movie.year > 1994 GROUP BY movie.year ORDER BY COUNT(*) DESC LIMIT 1",
			"SELECT movie.year FROM actor JOIN starring" + join +
				" WHERE movie.year > 1994 GROUP BY movie.year ORDER BY COUNT(*) DESC LIMIT 1"},
	}
	for _, pair := range pairs {
		var want [2]*Result
		for i, sql := range pair {
			want[i] = run(t, movieDB(), sql)
		}
		if reflect.DeepEqual(want[0].Rows, want[1].Rows) {
			t.Fatalf("fixture: %q and its re-rooting agree, so history cannot show", pair[0])
		}
		for _, first := range []int{0, 1} {
			db := movieDB()
			c := NewJoinCache(db)
			for n, i := range []int{first, 1 - first} {
				got, err := c.Execute(sqlparse.MustParse(db.Schema, pair[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%q run %s on a shared handle:\n got %v\nwant %v",
						pair[i], []string{"first", "second"}[n], got.Rows, want[i].Rows)
				}
			}
		}
	}
}
