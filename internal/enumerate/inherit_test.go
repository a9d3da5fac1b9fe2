package enumerate

import (
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

// expansion is what walk shows its observer: a popped state's query, whether
// it passed the cascade (its children then inherit), and its options with
// what the engine's own path — the child built in the scratch and checked
// there by VerifyChild — said about each.
type expansion struct {
	parent   *sqlir.Query
	verified bool
	opts     []option
	results  []verifyResult
}

// walk is Enumerate's loop with the emission taken out and an observer put
// in: it expands up to maxStates states best-first, verifies each expansion
// exactly as Enumerate does, and shows the observer every expansion before
// its children are queued.
func walk(t *testing.T, in walkInput, sketch *tsq.TSQ, maxStates int, observe func(expansion)) {
	t.Helper()
	v := verify.New(in.db, semrules.Default(), sketch, in.lits)
	e := New(in.db, in.model, v, Options{})
	s := e.newSearch(context.Background(), in.nlq, in.lits)
	defer s.close()
	for n := 0; s.queue.len() > 0 && n < maxStates; n++ {
		p := s.queue.pop()
		q, opts, err := s.expand(&p)
		if err != nil {
			t.Fatal(err)
		}
		var results []verifyResult
		for _, o := range opts {
			results = append(results, s.verifyChild(q, p.verified, o.dec))
		}
		observe(expansion{q, p.verified, opts, results})
		for i := range opts {
			r := &results[i]
			if r.err != nil || r.cancelled {
				t.Fatalf("%s + %+v: %+v", q, opts[i].dec, r)
			}
			if c := s.child(&p, q, &opts[i], r); r.out.OK && !r.complete {
				s.queue.push(c)
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
// expands, the engine's check — begun on the scratch child, re-proving only
// what the child's one decision could have changed — reaches the outcome of
// the full cascade run from scratch on the derived query by an independent
// verifier.
func TestInheritedOutcomeMatchesFullCascade(t *testing.T) {
	checked, inherited := 0, 0
	for _, in := range walkInputs(t) {
		// Without the TSQ little is pruned, so every clause gets expanded.
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			oracle := verify.New(in.db, semrules.Default(), sketch, in.lits)
			walk(t, in, sketch, 400, func(x expansion) {
				for i, o := range x.opts {
					child := x.parent.Apply(o.dec)
					want, err := oracle.Verify(child)
					if err != nil {
						t.Fatal(err)
					}
					got := x.results[i].out
					if got.OK != want.OK || got.Stage != want.Stage {
						t.Errorf("%s: %s (decision %+v): engine outcome %+v, full cascade %+v",
							in.id, child, o.dec, got, want)
					}
					checked++
					if x.verified {
						inherited++
					}
				}
			})
		}
	}
	if checked == 0 || inherited*2 < checked {
		t.Errorf("%d of %d children inherited from a verified parent; the test is not exercising inheritance", inherited, checked)
	}
}

// TestChildrenNeverWriteThroughToParents: building (in the scratch and for
// real), verifying and queueing a state's children leaves the parent's query
// rendering exactly as before, for every kind of decision. Every parent
// holds a HAVING or ORDER BY clause exactly when that clause is present.
func TestChildrenNeverWriteThroughToParents(t *testing.T) {
	kinds := map[sqlir.DecisionKind]bool{}
	for _, in := range walkInputs(t) {
		// Without the TSQ little is pruned, so every clause gets expanded.
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			type rendering struct{ str, canon string }
			before := map[*sqlir.Query]rendering{}
			walk(t, in, sketch, 250, func(x expansion) {
				q := x.parent
				if (q.Having != nil) != (q.HavingState == sqlir.ClausePresent) || (q.OrderBy != nil) != (q.OrderByState == sqlir.ClausePresent) {
					t.Fatalf("%s: %s holds HAVING %v (state %v), ORDER BY %v (state %v)",
						in.id, q, q.Having != nil, q.HavingState, q.OrderBy != nil, q.OrderByState)
				}
				before[q] = rendering{q.String(), q.Canonical()}
				for _, o := range x.opts {
					if x.verified {
						kinds[o.dec.Kind] = true
					}
				}
			})
			// Checked after the whole walk: a parent must survive not just
			// its children but its grandchildren's derivations too.
			for p, was := range before {
				if got := (rendering{p.String(), p.Canonical()}); got != was {
					t.Fatalf("%s: parent changed under its descendants:\n was %s\n now %s", in.id, was.str, got.str)
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

// TestScratchNeverEscapes: the scratch child is recycled for the next
// sibling, its whole cascade included, so whatever outlives the look at it —
// a popped state and an emitted candidate — must be a derivation of its own.
// Each is read when it is handed out and again once the search is over.
func TestScratchNeverEscapes(t *testing.T) {
	type kept struct {
		q   *sqlir.Query
		was string
	}
	for _, in := range walkInputs(t) {
		var handed []kept
		walk(t, in, in.sketch, 250, func(x expansion) {
			handed = append(handed, kept{x.parent, x.parent.String()})
		})

		v := verify.New(in.db, semrules.Default(), in.sketch, in.lits)
		e := New(in.db, in.model, v, Options{MaxStates: 1000, MaxCandidates: 10})
		res, err := e.Enumerate(context.Background(), in.nlq, in.lits, func(c Candidate) bool {
			handed = append(handed, kept{c.Query, c.Query.String()})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			if out, err := v.Verify(c.Query); err != nil || !out.OK {
				t.Errorf("%s: candidate %s no longer verifies: %+v, %v", in.id, c.Query, out, err)
			}
		}
		for _, k := range handed {
			if now := k.q.String(); now != k.was {
				t.Fatalf("%s: a query changed after it was handed out:\n was %s\n now %s", in.id, k.was, now)
			}
		}
	}
}

// TestChildAllocations bounds what a child costs: nothing when the cascade
// rejects it without database work, and for one that is queued at most its
// share of a frontier chunk, when the chunk pool has none to give — the
// query is not built until it is popped.
func TestChildAllocations(t *testing.T) {
	db := movieDB()
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber},
		Tuples: []tsq.Tuple{{tsq.Exact(text("No Such Film")), tsq.Empty()}},
	}
	e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), sketch, nil), Options{})
	s := e.newSearch(context.Background(), "titles", nil)
	defer s.close()

	title, year := sqlir.ColumnRef{Table: "movie", Column: "title"}, sqlir.ColumnRef{Table: "movie", Column: "year"}
	root := sqlir.NewQuery()
	q := root.Apply(sqlir.Decision{Kind: sqlir.DecideKeywords, Where: true}).
		Apply(sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 2}).
		Apply(sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 0, Col: &title})
	parent := entry{q: q, verified: true}

	// consider is what Enumerate does with one option of an expansion.
	consider := func(p *entry, o option) (stage verify.Stage, queued bool) {
		r := s.verifyChild(p.q, p.verified, o.dec)
		c := s.child(p, p.q, &o, &r)
		if !r.out.OK {
			return r.out.Stage, false
		}
		s.queue.push(c)
		return "", true
	}
	for _, tc := range []struct {
		name   string
		parent *entry
		dec    sqlir.Decision
		stage  verify.Stage // where it is rejected; "" when it is queued
	}{
		{"clauses", &entry{q: root}, sqlir.Decision{Kind: sqlir.DecideKeywords, OrderBy: true}, verify.StageClauses},
		{"semantics", &parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggAvg}, verify.StageSemantics},
		{"column types", &parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggCount}, verify.StageColumnTypes},
		{"by column, memoized", &parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggNone}, verify.StageByColumn},
		{"queued: header only", &parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 1, Agg: sqlir.AggNone}, ""},
		{"queued: projection", &parent, sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 1, Col: &year}, ""},
	} {
		o := option{tc.dec, 0.5}
		if stage, _ := consider(tc.parent, o); stage != tc.stage {
			t.Fatalf("%s: rejected at %q, want %q", tc.name, stage, tc.stage)
		}
		n := testing.AllocsPerRun(1000, func() { consider(tc.parent, o) })
		if tc.stage != "" && n != 0 {
			t.Errorf("%s: a rejected child cost %.0f allocations, want 0", tc.name, n)
		}
		if tc.stage == "" && n > 1 {
			t.Errorf("%s: a queued child cost %.0f allocations, want at most 1 amortised", tc.name, n)
		}
	}
}
