package enumerate

import (
	"container/heap"
	"context"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// walk is Enumerate's loop with the emission taken out and an observer put
// in: it expands up to maxStates states best-first, verifies each expansion
// exactly as Enumerate does for the given worker count, and shows the
// observer every parent with its verified children before consuming them.
func walk(t *testing.T, in walkInput, sketch *tsq.TSQ, workers, maxStates int,
	observe func(parent *state, children []*state, results []verifyResult)) {
	t.Helper()
	ctx := context.Background()
	v := verify.New(in.db, semrules.Default(), sketch, in.lits)
	e := New(in.db, in.model, v, Options{Workers: workers})
	mctx := guidance.NewContextDB(in.nlq, in.lits, in.db, nil)
	all := func(*state) bool { return true }
	var pool *verifyPool
	if workers > 1 {
		pool = newVerifyPool(ctx, v, workers)
		defer pool.close()
	}
	pq := &stateQueue{}
	heap.Push(pq, &state{q: sqlir.NewQuery()})
	for n := 0; pq.Len() > 0 && n < maxStates; n++ {
		p := heap.Pop(pq).(*state)
		children, err := e.nextStep(mctx, p)
		if err != nil {
			t.Fatal(err)
		}
		var results []verifyResult
		if pool != nil && len(children) > 1 {
			results = pool.verifyBatch(children, all)
		} else {
			for _, c := range children {
				results = append(results, verifyChild(ctx, v, c))
			}
		}
		observe(p, children, results)
		for i, c := range children {
			if r := results[i]; r.err != nil || r.cancelled {
				t.Fatalf("%s: %+v", c.q, r)
			} else if r.out.OK && !c.complete {
				c.verified = true
				heap.Push(pq, c)
			}
		}
	}
}

// walkInputs are the searches the inheritance tests walk: a sample of the
// Spider-dev benchmark tasks and a few tasks over one generated database,
// each with its full TSQ, under the lexical model — plus one task with a
// HAVING clause under a noisy oracle, which no 250-state lexical search
// reaches the end of.
type walkInput struct {
	id     string
	db     *storage.Database
	model  guidance.Model
	sketch *tsq.TSQ
	nlq    string
	lits   []sqlir.Value
}

func walkInputs(t *testing.T) []walkInput {
	t.Helper()
	stride, genTasks := 12, 6
	if testing.Short() {
		stride, genTasks = 40, 2
	}
	var in []walkInput
	tasks := spiderTasks(t)
	having := false
	for i, st := range tasks {
		if i%stride == 0 {
			in = append(in, walkInput{st.ID, st.DB, guidance.NewLexicalModel(), st.sketch, st.NLQ, st.Literals})
		}
		if !having && st.Gold.HavingState == sqlir.ClausePresent {
			having = true
			in = append(in, walkInput{st.ID + "/oracle", st.DB, guidance.NewOracleModel(st.Gold, 0.2), st.sketch, st.NLQ, st.Literals})
		}
	}
	spec, _ := loadgen.Preset("small")
	spec.Rows = 2000
	gen, err := loadgen.Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	gts, err := gen.Tasks(genTasks, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, gt := range gts {
		sk, err := dataset.SynthesizeTSQ(gt, dataset.DetailFull, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, walkInput{gt.ID, gt.DB, guidance.NewLexicalModel(), sk, gt.NLQ, gt.Literals})
	}
	return in
}

// TestInheritedOutcomeMatchesFullCascade: for every child the search
// expands, the inherited check — which re-proves only what the child's one
// decision could have changed — reaches the outcome of the full cascade run
// from scratch by an independent verifier.
func TestInheritedOutcomeMatchesFullCascade(t *testing.T) {
	checked, inherited := 0, 0
	for _, in := range walkInputs(t) {
		oracle := verify.New(in.db, semrules.Default(), in.sketch, in.lits)
		walk(t, in, in.sketch, 1, 400, func(_ *state, children []*state, results []verifyResult) {
			for i, c := range children {
				want, err := oracle.Verify(c.q)
				if err != nil {
					t.Fatal(err)
				}
				got := results[i].out
				if got.OK != want.OK || got.Stage != want.Stage {
					t.Errorf("%s: %s (decision %+v): inherited outcome %+v, full cascade %+v",
						in.id, c.q, c.dec, got, want)
				}
				checked++
				if c.dec.Kind != 0 {
					inherited++
				}
			}
		})
	}
	if checked == 0 || inherited*2 < checked {
		t.Errorf("%d of %d children inherited from a verified parent; the test is not exercising inheritance", inherited, checked)
	}
}

// TestChildrenNeverWriteThroughToParents: deriving, verifying (on four pool
// workers, so the race detector sees every access) and queueing a state's
// children leaves the parent's query rendering exactly as before, for every
// kind of decision.
func TestChildrenNeverWriteThroughToParents(t *testing.T) {
	kinds := map[sqlir.DecisionKind]bool{}
	observe := func(p *state, children []*state, _ []verifyResult) {
		for _, c := range children {
			kinds[c.dec.Kind] = true
		}
	}
	for _, in := range walkInputs(t) {
		// Without the TSQ little is pruned, so every clause gets expanded.
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			type rendering struct{ str, canon string }
			before := map[*state]rendering{}
			var parents []*state
			walk(t, in, sketch, 4, 250, func(p *state, children []*state, results []verifyResult) {
				before[p] = rendering{p.q.String(), p.q.Canonical()}
				parents = append(parents, p)
				observe(p, children, results)
			})
			// Checked after the whole walk: a parent must survive not just
			// its children but its grandchildren's derivations too.
			for _, p := range parents {
				if got := (rendering{p.q.String(), p.q.Canonical()}); got != before[p] {
					t.Fatalf("%s: parent changed under its descendants:\n was %s\n now %s", in.id, before[p].str, got.str)
				}
			}
		}
	}
	// The keyword decision is the root's, and the root has no proof to pass on.
	for k := sqlir.DecideSelectCount; k <= sqlir.DecideOrderDir; k++ {
		if !kinds[k] {
			t.Errorf("decision kind %d was never applied to a verified parent", k)
		}
	}
}

// TestChildAllocations bounds what deriving one child costs: the query
// header, at most one slice, and the search state.
func TestChildAllocations(t *testing.T) {
	e := New(movieDB(), guidance.NewLexicalModel(), verify.New(movieDB(), nil, nil, nil), Options{})
	parent := &state{verified: true, q: sqlir.NewQuery().WithKeywords(true, false, false).
		WithSelectCount(2).WithWhereCount(3)}
	col := sqlir.ColumnRef{Table: "movie", Column: "year"}
	for name, derive := range map[string]func() *state{
		"header only": func() *state {
			return e.child(parent, 0.5, parent.q.WithWhereConj(sqlir.LogicAnd), sqlir.Decision{Kind: sqlir.DecideWhereConj})
		},
		"projection": func() *state {
			return e.child(parent, 0.5, parent.q.WithSelectColumn(1, col), sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 1})
		},
		"predicate": func() *state {
			return e.child(parent, 0.5, parent.q.WithPredColumn(2, col), sqlir.Decision{Kind: sqlir.DecidePredColumn, Index: 2})
		},
	} {
		if n := testing.AllocsPerRun(100, func() { derive() }); n > 3 {
			t.Errorf("%s child: %.0f allocations, want at most 3 (header, one slice, state)", name, n)
		}
	}
}
