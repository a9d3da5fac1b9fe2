package verify

import (
	"context"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// multiplesDB is one table t whose column n holds 0, 3, …, 3·(rows−1).
func multiplesDB(rows int) *storage.Database {
	tb := storage.NewTable("t", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "n", Type: sqlir.TypeNumber},
	)
	for i := range rows {
		tb.MustInsert(num(float64(i)), num(float64(3*i)))
	}
	return storage.NewDatabase("multiples", storage.NewSchema(tb))
}

// memoLen is the number of entries a memo holds.
func memoLen(bm *boolMemo) int {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	return len(bm.m)
}

// freshColumnCheck answers a column-cell question with a fresh probe of db.
func freshColumnCheck(t *testing.T, db *storage.Database, col sqlir.ColumnRef, cell tsq.Cell) bool {
	t.Helper()
	ok, err := sqlexec.ExistsCtx(context.Background(), db, sqlexec.ExistsQuery{
		From:  db.Schema.Catalog().Root(col.Table()),
		Conj:  sqlir.LogicAnd,
		Preds: cellPredicates(col, cell),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestMemoHoldsItsBound streams half again as many distinct column-cell
// questions as a memo holds through one Cache, over two epochs (a row is
// appended halfway, and the rest are asked on the new snapshot through At),
// and asks every other earlier question again beside them. The column memo
// never holds more than memoEntries entries and is emptied along the way,
// and every answer — computed, reused, or computed again after a clear —
// equals a fresh probe of the snapshot that asked.
func TestMemoHoldsItsBound(t *testing.T) {
	ctx := context.Background()
	live := multiplesDB(400)
	col := live.Schema.Catalog().MustCol("t", "n")
	db := live.Snapshot()
	cache := NewCache(db)
	// cell i is [i mod 1000, i mod 1000 + i div 1000]: distinct for every i,
	// and it holds a multiple of 3 below 1 200 for some i and not others.
	cell := func(i int) tsq.Cell {
		lo := float64(i % 1000)
		return tsq.Range(lo, lo+float64(i/1000))
	}
	n := memoEntries + memoEntries/2
	clears, hits, last := 0, 0, 0
	var answers [2]int
	for i := range n {
		if i == n/2 {
			live.Schema.Tables[0].MustInsert(num(400), num(1201))
			db = live.Snapshot()
			cache = cache.At(db)
		}
		v := NewWithCache(db, nil, nil, nil, cache)
		for _, j := range []int{i, i / 2} {
			ok, hit, err := v.columnCellCheck(ctx, sqlir.AggNone, col, cell(j))
			if err != nil {
				t.Fatal(err)
			}
			if fresh := freshColumnCheck(t, db, col, cell(j)); ok != fresh {
				t.Fatalf("question %d on epoch %d: memo answered %v (hit %v), a fresh probe %v", j, db.Epoch(), ok, hit, fresh)
			}
			if hit {
				hits++
			}
			if ok {
				answers[1]++
			} else {
				answers[0]++
			}
		}
		size := memoLen(cache.col)
		if size > memoEntries {
			t.Fatalf("after question %d the column memo holds %d entries, more than memoEntries (%d)", i, size, memoEntries)
		}
		if size < last {
			clears++
		}
		last = size
	}
	t.Logf("%d questions asked twice: %d clears, %d hits, %d true and %d false answers", n, clears, hits, answers[1], answers[0])
	if clears == 0 {
		t.Errorf("%d distinct questions never emptied the column memo", n)
	}
	if hits == 0 || answers[0] == 0 || answers[1] == 0 {
		t.Errorf("the stream reused %d answers, %d true and %d false: it cannot show a stale answer", hits, answers[1], answers[0])
	}
}

// TestConcurrentAskersOfOneKey has goroutines ask one column-cell question
// at once on a cold memo, all on one snapshot or half on each of two, round
// after round. The question is false on the older snapshot and true on the
// newer, so neither snapshot's answer serves the other. Every answer equals a
// fresh probe of the snapshot that asked, and once the askers are done, and
// again after the older snapshot asks once more, the key's entry is the
// newest asker's version: an older reader never replaces a newer entry.
func TestConcurrentAskersOfOneKey(t *testing.T) {
	live := multiplesDB(40)
	col := live.Schema.Catalog().MustCol("t", "n")
	cell := tsq.Exact(num(1000))
	older := live.Snapshot()
	live.Schema.Tables[0].MustInsert(num(40), num(1000))
	newer := live.Snapshot()
	snaps := []*storage.Database{older, newer}
	var fresh [2]bool
	for s, db := range snaps {
		fresh[s] = freshColumnCheck(t, db, col, cell)
	}
	if fresh[0] || !fresh[1] {
		t.Fatalf("fresh answers %v on the two snapshots, want [false true]", fresh)
	}
	key := columnCellKey(false, col, cell)
	for _, tc := range []struct {
		name  string
		snaps []int // the snapshot each asker reads, by index into snaps
	}{
		{"one version", []int{1, 1, 1, 1, 1, 1}},
		{"two versions", []int{0, 1, 0, 1, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := range 50 {
				caches := []*Cache{NewCache(older)}
				caches = append(caches, caches[0].At(newer))
				got := make([]bool, len(tc.snaps))
				errs := make([]error, len(tc.snaps))
				var start, done sync.WaitGroup
				start.Add(1)
				for a, s := range tc.snaps {
					done.Add(1)
					go func() {
						defer done.Done()
						v := NewWithCache(snaps[s], nil, nil, nil, caches[s])
						start.Wait()
						got[a], _, errs[a] = v.columnCellCheck(context.Background(), sqlir.AggNone, col, cell)
					}()
				}
				start.Done()
				done.Wait()
				for a, s := range tc.snaps {
					if errs[a] != nil {
						t.Fatal(errs[a])
					}
					if got[a] != fresh[s] {
						t.Fatalf("round %d: asker %d on epoch %d answered %v, a fresh probe %v", round, a, snaps[s].Epoch(), got[a], fresh[s])
					}
				}
				want := newer.Schema.Tables[0].NumRows()
				for pass := range 2 {
					caches[0].col.mu.Lock()
					e := caches[0].col.m[key]
					caches[0].col.mu.Unlock()
					if e.version != want || e.val != true {
						t.Fatalf("round %d, pass %d: the key holds version %d answering %v, want the newer snapshot's version %d answering true", round, pass, e.version, e.val, want)
					}
					// The older snapshot asks again on its own: it computes, and
					// must leave the newer entry in place.
					if ok, hit, err := NewWithCache(older, nil, nil, nil, caches[0]).columnCellCheck(context.Background(), sqlir.AggNone, col, cell); err != nil || ok || hit {
						t.Fatalf("round %d: the older snapshot answered %v (hit %v, err %v), want a computed false", round, ok, hit, err)
					}
				}
			}
		})
	}
}
