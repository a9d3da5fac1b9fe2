package sqlexec_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Morsel-parallel differential tests: the morsel fan-out must be
// bit-identical to the single-threaded columnar pipeline (which in turn is
// differentially pinned to the preserved row pipeline and the materializing
// reference) at every morsel size, including degenerate ones — one row per
// morsel, a prime that misaligns every boundary, the production default,
// and a single morsel spanning the whole table. Workers vary so the claim
// holds regardless of how many goroutines actually raced over the morsels.

// morselSizes are the swept morsel widths: single-row, prime misalignment,
// production default, and one morsel larger than any test table.
var morselSizes = []int{1, 7, 1024, 1 << 20}

// morselWorkers cycles the fan-out widths.
var morselWorkers = []int{1, 2, 4, 8}

// TestMorselDifferentialExists checks the morsel-parallel pipeline against
// the single-threaded columnar pipeline and the materializing reference on random existence probes over Movies and MAS.
func TestMorselDifferentialExists(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			for _, size := range morselSizes {
				t.Run(fmt.Sprintf("morsel=%d", size), func(t *testing.T) {
					g := newQueryGen(11, db)
					for i := 0; i < 120; i++ {
						eq := g.existsQuery()
						workers := morselWorkers[i%len(morselWorkers)]
						mOK, mHandled, mErr := sqlexec.ExistsMorsel(db, eq, workers, size)
						cOK, cHandled, cErr := sqlexec.ExistsStreaming(db, eq)
						if mHandled != cHandled {
							t.Fatalf("probe %d: compile coverage diverges: morsel=%v columnar=%v", i, mHandled, cHandled)
						}
						if !mHandled {
							continue
						}
						if (mErr != nil) != (cErr != nil) {
							t.Fatalf("probe %d: error divergence: morsel=%v columnar=%v", i, mErr, cErr)
						}
						if mErr != nil {
							if mErr.Error() != cErr.Error() {
								t.Fatalf("probe %d: error text diverges: morsel=%v columnar=%v", i, mErr, cErr)
							}
							continue
						}
						if mOK != cOK {
							t.Fatalf("probe %d (workers=%d): morsel=%v columnar=%v for %+v", i, workers, mOK, cOK, eq)
						}
						refOK, refErr := sqlexec.ExistsReference(db, eq)
						if refErr != nil {
							t.Fatalf("probe %d: reference errored where morsel did not: %v", i, refErr)
						}
						if refOK != mOK {
							t.Fatalf("probe %d: reference=%v morsel=%v for %+v", i, refOK, mOK, eq)
						}
					}
				})
			}
		})
	}
}

// nullHeavyDB generates a database whose nullable columns are ~35% NULL, so
// the morsel merge exercises the NULL group, NULL-skipping aggregates, and
// NULL-encoding group keys far more often than the demo sets do.
func nullHeavyDB(t testing.TB) *loadgen.Generated {
	t.Helper()
	g, err := loadgen.Generate(loadgen.Spec{Name: "nullheavy", Tables: 4, Rows: 8000, NullRate: 0.35}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMorselDifferentialNullHeavy runs the loadgen probe workload plus
// random generator probes over a NULL-heavy generated database at every
// swept morsel size.
func TestMorselDifferentialNullHeavy(t *testing.T) {
	gen := nullHeavyDB(t)
	db := gen.DB
	probes := gen.Probes(60, 3)
	qg := newQueryGen(13, db)
	for i := 0; i < 60; i++ {
		probes = append(probes, qg.existsQuery())
	}
	for _, size := range morselSizes {
		t.Run(fmt.Sprintf("morsel=%d", size), func(t *testing.T) {
			for i, eq := range probes {
				workers := morselWorkers[i%len(morselWorkers)]
				mOK, mHandled, mErr := sqlexec.ExistsMorsel(db, eq, workers, size)
				cOK, cHandled, cErr := sqlexec.ExistsStreaming(db, eq)
				if mHandled != cHandled {
					t.Fatalf("probe %d: compile coverage diverges: morsel=%v columnar=%v", i, mHandled, cHandled)
				}
				if !mHandled {
					continue
				}
				if (mErr != nil) != (cErr != nil) {
					t.Fatalf("probe %d: error divergence: morsel=%v columnar=%v", i, mErr, cErr)
				}
				if mErr != nil {
					if mErr.Error() != cErr.Error() {
						t.Fatalf("probe %d: error text diverges: morsel=%v columnar=%v", i, mErr, cErr)
					}
					continue
				}
				if mOK != cOK {
					t.Fatalf("probe %d (workers=%d, size=%d): morsel=%v columnar=%v", i, workers, size, mOK, cOK)
				}
				refOK, refErr := sqlexec.ExistsReference(db, eq)
				if refErr != nil {
					t.Fatalf("probe %d: reference errored where morsel did not: %v", i, refErr)
				}
				if refOK != mOK {
					t.Fatalf("probe %d: reference=%v morsel=%v", i, refOK, mOK)
				}
			}
		})
	}
}

// TestMorselExecuteEquivalence checks the fanned-out compiled pipeline
// against the materializing reference on random complete SPJA queries at
// every swept morsel size and fan-out width: same rows, same order, cell for
// cell, and the same error text.
func TestMorselExecuteEquivalence(t *testing.T) {
	for name, db := range diffDBs(t) {
		t.Run(name, func(t *testing.T) {
			g := newQueryGen(17, db)
			for i := 0; i < 150; i++ {
				q, _ := g.completeQuery()
				want, werr := sqlexec.ExecuteReference(db, q)

				size := morselSizes[i%len(morselSizes)]
				workers := morselWorkers[i%len(morselWorkers)]
				ctx := sqlexec.WithMorselSize(
					sqlexec.WithPool(context.Background(), sqlexec.NewWorkerPool(workers, 0)), size)
				got, gerr := sqlexec.ExecuteCtx(ctx, db, q)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("query %d: error divergence: reference=%v morsel=%v", i, werr, gerr)
				}
				if werr != nil {
					if werr.Error() != gerr.Error() {
						t.Fatalf("query %d: error text diverges: reference=%v morsel=%v", i, werr, gerr)
					}
					continue
				}
				if !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
					t.Fatalf("query %d (workers=%d, size=%d): rows diverge from the reference\n%s", i, workers, size, q)
				}
			}
		})
	}
}

// witnessDB builds a single wide table with exactly one matching row at a
// chosen position, so first-witness cancellation has a deterministic
// decisive morsel to race against the rest of the pool.
func witnessDB(t testing.TB, rows, witnessAt int) *storage.Database {
	t.Helper()
	tab := storage.NewTable("t", "id",
		storage.Column{Name: "id", Type: sqlir.TypeNumber},
		storage.Column{Name: "v", Type: sqlir.TypeNumber},
	)
	for i := 0; i < rows; i++ {
		v := 0.0
		if i == witnessAt {
			v = 1
		}
		tab.MustInsert(sqlir.NewInt(i), sqlir.NewNumber(v))
	}
	return storage.NewDatabase("witness", storage.NewSchema(tab))
}

func witnessProbe(v float64) sqlexec.ExistsQuery {
	return sqlexec.ExistsQuery{
		From: &sqlir.JoinPath{Tables: []string{"t"}},
		AndPreds: []sqlir.Predicate{{
			Col: sqlir.ColumnRef{Table: "t", Column: "v"}, ColSet: true,
			Op: sqlir.OpEq, OpSet: true, Val: sqlir.NewNumber(v), ValSet: true,
		}},
	}
}

// TestMorselFirstWitnessCancellationRace races first-witness cancellation
// against pool drain under the race detector: a witness in the first
// morsel, a witness in the last morsel, and no witness at all, each
// repeated with a wide fan-out and morsels small enough that dozens are in
// flight when the decisive one lands. The answer must be deterministic in
// every case — benign morsel cancellations above the watermark must never
// surface.
func TestMorselFirstWitnessCancellationRace(t *testing.T) {
	const rows = 50_000
	cases := []struct {
		name      string
		witnessAt int
		probe     sqlexec.ExistsQuery
		want      bool
	}{
		{"witness-first-morsel", 3, witnessProbe(1), true},
		{"witness-last-morsel", rows - 2, witnessProbe(1), true},
		{"no-witness", 0, witnessProbe(2), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := witnessDB(t, rows, tc.witnessAt)
			iters := 60
			if testing.Short() {
				iters = 12
			}
			for i := 0; i < iters; i++ {
				ok, handled, err := sqlexec.ExistsMorsel(db, tc.probe, 8, 64)
				if err != nil {
					t.Fatalf("iter %d: %v", i, err)
				}
				if !handled {
					t.Fatalf("iter %d: probe fell off the streaming pipeline", i)
				}
				if ok != tc.want {
					t.Fatalf("iter %d: exists=%v, want %v", i, ok, tc.want)
				}
			}
		})
	}
}

// TestMorselExternalCancellation races caller cancellation against the
// morsel pool: a context cancelled mid-scan must surface context.Canceled
// (or, if the witness won the race, the true answer) and never a partial
// "false" — and the very next uncancelled probe over the same database must
// answer correctly, proving no shared state was poisoned.
func TestMorselExternalCancellation(t *testing.T) {
	const rows = 50_000
	db := witnessDB(t, rows, rows-2)
	probe := witnessProbe(1)
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Cancel while morsels are (likely) mid-flight; the exact
			// interleaving varies run to run, which is the point.
			cancel()
			close(done)
		}()
		ok, handled, err := sqlexec.ExistsMorselCtx(ctx, db, probe, 8, 64)
		<-done
		if !handled {
			t.Fatalf("iter %d: probe fell off the streaming pipeline", i)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: err = %v, want nil or context.Canceled", i, err)
		}
		if err == nil && !ok {
			t.Fatalf("iter %d: cancelled scan returned a definitive false", i)
		}
		// Shared storage (indexes, dictionaries) must be unharmed.
		ok, handled, err = sqlexec.ExistsMorsel(db, probe, 4, 1024)
		if err != nil || !handled || !ok {
			t.Fatalf("iter %d: healthy probe after cancellation: ok=%v handled=%v err=%v", i, ok, handled, err)
		}
	}
}
