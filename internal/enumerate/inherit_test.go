package enumerate

import (
	"context"
	"math"
	"reflect"
	"slices"
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

// lineage is the walk's own record of how each query the search kept was
// built: from which kept query — nil for the root's — and by which decision.
// The states hold no such link, and the record never reads a kept query.
type lineage map[*sqlir.Query]link

type link struct {
	base *sqlir.Query
	dec  sqlir.Decision
}

// of is n's query built the long way: one derivation of its own per
// decision on its path from the root, the path the lineage records.
func (l lineage) of(n *state) *sqlir.Query { return l.derivation(n.base, n.dec) }

// derivation is the query decision d makes of the kept query base, derived
// from the root.
func (l lineage) derivation(base *sqlir.Query, d sqlir.Decision) *sqlir.Query {
	if base == nil {
		return sqlir.NewQuery() // the root's
	}
	b, ok := l[base]
	if !ok {
		panic("a state's base is not a query the walk kept")
	}
	return derive(l.derivation(b.base, b.dec), d)
}

// popping is what walk shows its observer of a popped state before its
// cascade: the state and its query, built in the search's cur by one Apply
// on its base and valid only during the call, and the walk's lineage.
type popping struct {
	state *state
	q     *sqlir.Query
	lin   lineage
}

// settlement is what walk shows its observer of one cascade a queued state
// owed: the state, the query the engine checked — its own, in cur, when it
// was popped, or its base's child in the scratch when it was still queued
// at the end of the walk; valid only during the call — the outcome and the
// walk's lineage.
type settlement struct {
	state *state
	q     *sqlir.Query
	out   verify.Outcome
	lin   lineage
}

// expansion is what walk shows its observer of an expanded state: the state
// and its query — the search's kept copy, read after its children were
// built, the complete ones checked and the others queued — whether it
// passed the cascade (its children then inherit), and its options with
// what the engine's own path — the child built in the scratch and, when
// complete, checked there by VerifyChild — said about each (each result's q
// is the scratch, overwritten since); the search's guidance context, bound
// to parent; the search's frontier, with the state's slot not yet handed
// back; and the walk's lineage.
type expansion struct {
	state    *state
	parent   *sqlir.Query
	verified bool
	opts     []option
	results  []verifyResult
	ctx      *guidance.Context
	queue    *frontier
	kept     *store
	lin      lineage
}

// observer is what a test hands walk; any function may be nil.
type observer struct {
	popped   func(popping)
	settled  func(settlement)
	expanded func(expansion)
}

// walk is Enumerate's loop with the emission taken out and an observer put
// in: it expands up to maxStates states best-first under mode, checks each
// popped state that owes its cascade and each complete child exactly as
// Enumerate does, and shows the observer every popped state, every cascade
// a popped state owed and every expansion once its children are queued. It
// records the lineage of every query the search keeps. With an observer of
// settlements, the states still queued at the end are settled too, a step
// of the test alone, each as its base's child built in the scratch: the
// walk then checks every child of every state it expanded, as the search
// once did when it checked each child as it was generated.
func walk(t testing.TB, in walkInput, sketch *tsq.TSQ, mode Mode, maxStates int, obs observer) {
	t.Helper()
	v := verify.New(in.db, semrules.Default(), sketch, in.lits)
	e := New(in.db, in.model, v, Options{Mode: mode})
	s := e.newSearch(context.Background(), in.nlq, in.lits)
	t.Cleanup(s.close) // the kept queries outlive the walk: a test may read them after it
	lin := lineage{}
	settled := func(n *state, q *sqlir.Query) bool {
		out, err := s.check(n, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if obs.settled != nil {
			obs.settled(settlement{n, q, out, lin})
		}
		return out.OK
	}
	for expanded := 0; s.queue.len() > 0 && expanded < maxStates; {
		p := s.queue.pop()
		q := s.replay(p)
		if obs.popped != nil {
			obs.popped(popping{p, q, lin})
		}
		if p.owes && !settled(p, q) {
			s.queue.discard(p)
			continue
		}
		expanded++
		q = s.kept.keep(q, p.base)
		if _, ok := lin[q]; ok {
			t.Fatalf("%s: the search kept %s where it kept an earlier query", in.id, q)
		}
		lin[q] = link{p.base, p.dec}
		opts, err := s.expand(q)
		if err != nil {
			t.Fatal(err)
		}
		var results []verifyResult
		for i := range opts {
			// Queued before the next child is built: the key reads the
			// child's join path from the scratch.
			r := s.verifyChild(q, p.verified, opts[i].dec)
			if r.err != nil {
				t.Fatalf("%s + %+v: %v", q, opts[i].dec, r.err)
			}
			s.child(p, q, &opts[i], &r)
			results = append(results, r)
		}
		if obs.expanded != nil {
			obs.expanded(expansion{p, q, p.verified, opts, results, s.mctx, &s.queue, s.kept, lin})
		}
		s.queue.discard(p)
	}
	if obs.settled == nil {
		return
	}
	for _, k := range queued(&s.queue) {
		if n := k.st; n.owes {
			settled(n, s.scratch.Apply(n.base, n.dec))
		}
	}
}

// queued is the keys of the states f holds, without the hole a pop left.
func queued(f *frontier) []key {
	if f.hole {
		return f.keys[1:]
	}
	return f.keys
}

// derive is the child of q by d as a query of its own: built in a fresh
// scratch and cloned out of it.
func derive(q *sqlir.Query, d sqlir.Decision) *sqlir.Query {
	var s sqlir.Scratch
	return s.Apply(q, d).Clone()
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

func walkInputs(t testing.TB) []walkInput {
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

// TestInheritedOutcomeMatchesFullCascade: for every cascade the search
// runs — a popped state's, a complete child's as it is generated, and that
// of each state still queued when the walk ends — the engine's check,
// re-proving only what the state's one decision could have changed,
// reaches the outcome of the full cascade run from scratch on the derived
// query by an independent verifier. Every state the search expands and every candidate it emits
// passes that verifier too, except the partial states NoPQ never checks.
// It holds with and without the TSQ, under GPQE, NoPQ and NoGuide.
func TestInheritedOutcomeMatchesFullCascade(t *testing.T) {
	checked, inherited, rejected := 0, 0, 0
	same := func(id string, q *sqlir.Query, got, want verify.Outcome) {
		if got.OK != want.OK || got.Stage != want.Stage {
			t.Errorf("%s: %s: engine outcome %+v, full cascade %+v", id, q, got, want)
		}
		checked++
		if !got.OK {
			rejected++
		}
	}
	for _, in := range walkInputs(t) {
		// Without the TSQ little is pruned, so every clause gets expanded.
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			oracle := verify.New(in.db, semrules.Default(), sketch, in.lits)
			fresh := func(q *sqlir.Query) verify.Outcome {
				out, err := oracle.Verify(q)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			for _, mode := range []Mode{ModeGPQE, ModeNoPQ, ModeNoGuide} {
				id := in.id + "/" + mode.String()
				walk(t, in, sketch, mode, 400, observer{
					settled: func(x settlement) {
						same(id, x.q, x.out, fresh(x.lin.of(x.state)))
						if x.state.inherit {
							inherited++
						}
					},
					expanded: func(x expansion) {
						if mode != ModeNoPQ && x.state.base != nil {
							if out := fresh(x.lin.of(x.state)); !out.OK {
								t.Errorf("%s: expanded %s, which fails %+v", id, x.parent, out)
							}
						}
						for i, o := range x.opts {
							r := x.results[i]
							if !r.complete {
								continue
							}
							child := derive(x.parent, o.dec)
							same(id, child, r.out, fresh(child))
							if x.verified {
								inherited++
							}
						}
					},
				})
			}
		}
	}
	if checked == 0 || inherited*2 < checked || rejected == 0 {
		t.Errorf("%d of %d cascades inherited from a verified parent, %d rejected; the test is not exercising inheritance and rejection", inherited, checked, rejected)
	}
}

// TestReplayIsTheDerivation: the query of a popped state — its one decision
// applied to its base, the kept query of the state it extends, in the
// search's cur — and the copy of it the search keeps when it is expanded
// are, field for field and in their rendering, the query one derivation of
// its own per decision builds from the root along the path the walk
// recorded, for every popped state of the Spider walk.
func TestReplayIsTheDerivation(t *testing.T) {
	popped, expanded := 0, 0
	same := func(id, what string, got, want *sqlir.Query) {
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Fatalf("%s: %s %s\n derived %s", id, what, got, want)
		}
	}
	for _, in := range walkInputs(t) {
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			walk(t, in, sketch, ModeGPQE, 250, observer{
				popped: func(x popping) {
					same(in.id, "popped", x.q, x.lin.of(x.state))
					popped++
				},
				expanded: func(x expansion) {
					same(in.id, "kept", x.parent, x.lin.of(x.state))
					expanded++
				},
			})
		}
	}
	if expanded == 0 || popped == expanded {
		t.Fatalf("the walk popped %d states and expanded %d: it must pop some that fail", popped, expanded)
	}
}

// TestChildrenNeverWriteThroughToParents: the search keeps the query of
// every state it expands and rebuilds each child of it from that copy, so
// the copy could change only if a child, built and checked in the scratch,
// or a later state, built in cur, wrote into it — or if the copy shared a
// slice, a clause or its header with either scratch. None of that happens,
// for any kind of decision: the query an expansion reads after its children
// were looked at renders as its derivation from the root, and so does every
// kept query once the whole walk — every queued state settled as its base's
// child included — is over. Every parent holds a HAVING or ORDER BY clause
// exactly when that clause is present.
func TestChildrenNeverWriteThroughToParents(t *testing.T) {
	kinds := map[sqlir.DecisionKind]bool{}
	type rendering struct{ str, canon string }
	render := func(q *sqlir.Query) rendering { return rendering{q.String(), q.Canonical()} }
	for _, in := range walkInputs(t) {
		// Without the TSQ little is pruned, so every clause gets expanded.
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			var lin lineage
			walk(t, in, sketch, ModeGPQE, 250, observer{
				settled: func(settlement) {}, // and settle what is left queued
				expanded: func(x expansion) {
					q := x.parent
					if (q.Having != nil) != (q.HavingState == sqlir.ClausePresent) || (q.OrderBy != nil) != (q.OrderByState == sqlir.ClausePresent) {
						t.Fatalf("%s: %s holds HAVING %v (state %v), ORDER BY %v (state %v)",
							in.id, q, q.Having != nil, q.HavingState, q.OrderBy != nil, q.OrderByState)
					}
					if got, want := render(q), render(x.lin.of(x.state)); got != want {
						t.Fatalf("%s: parent changed under its children:\n was %s\n now %s", in.id, want.str, got.str)
					}
					for _, o := range x.opts {
						if x.verified {
							kinds[o.dec.Kind] = true
						}
					}
					lin = x.lin
				},
			})
			// Checked after the whole walk: a kept query must survive not
			// just its state's children but every state built after it.
			for q, l := range lin {
				if got, want := render(q), render(lin.derivation(l.base, l.dec)); got != want {
					t.Fatalf("%s: a kept query changed under later states:\n was %s\n now %s", in.id, want.str, got.str)
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

// TestScratchNeverEscapes: the popped state's query and the child being
// looked at live in the search's scratch and are rebuilt for the next state
// and the next sibling, so the one query that escapes a search under a
// guidance.Borrower — an emitted candidate — must be a copy of its own.
// Each candidate is read when it is handed out and again once the search is
// over, and still verifies.
func TestScratchNeverEscapes(t *testing.T) {
	type kept struct {
		q   *sqlir.Query
		was string
	}
	for _, in := range walkInputs(t) {
		var handed []kept
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
				t.Fatalf("%s: a candidate changed after it was handed out:\n was %s\n now %s", in.id, k.was, now)
			}
		}
	}
}

// keepingModel is a model that is not a guidance.Borrower: like a tracing
// wrapper, it keeps every partial query its column, operator and value
// modules are handed, with its rendering at the time.
type keepingModel struct {
	guidance.Model
	kept []keptQuery
}

type keptQuery struct {
	q   *sqlir.Query
	was string
}

func (m *keepingModel) keep(ctx *guidance.Context) {
	m.kept = append(m.kept, keptQuery{ctx.Query, ctx.Query.String()})
}

func (m *keepingModel) SelectColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	m.keep(ctx)
	return m.Model.SelectColumn(ctx, idx)
}

func (m *keepingModel) SelectAgg(ctx *guidance.Context, idx int, col sqlir.ColumnRef) []guidance.Scored[sqlir.AggFunc] {
	m.keep(ctx)
	return m.Model.SelectAgg(ctx, idx, col)
}

func (m *keepingModel) WhereColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	m.keep(ctx)
	return m.Model.WhereColumn(ctx, idx)
}

func (m *keepingModel) WhereOp(ctx *guidance.Context, col sqlir.ColumnRef) []guidance.Scored[sqlir.Op] {
	m.keep(ctx)
	return m.Model.WhereOp(ctx, col)
}

func (m *keepingModel) WhereValue(ctx *guidance.Context, col sqlir.ColumnRef, op sqlir.Op) []guidance.Scored[sqlir.Value] {
	m.keep(ctx)
	return m.Model.WhereValue(ctx, col, op)
}

// TestModelThatKeepsQueriesGetsItsOwn: a model that does not promise to
// borrow Context.Query is handed a copy of its own at each expansion, so
// every query it keeps is distinct and still renders as it did when it was
// handed over once the search is over — and the search is the one a
// borrowing model runs: the same states and the same candidates.
func TestModelThatKeepsQueriesGetsItsOwn(t *testing.T) {
	for _, in := range walkInputs(t) {
		if !guidance.Borrows(in.model) {
			t.Fatalf("%s: %T does not borrow Context.Query", in.id, in.model)
		}
		run := func(m guidance.Model) *Result {
			v := verify.New(in.db, semrules.Default(), in.sketch, in.lits)
			res, err := New(in.db, m, v, Options{MaxStates: 1000, MaxCandidates: 10}).Enumerate(context.Background(), in.nlq, in.lits, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		keeping := &keepingModel{Model: in.model}
		want, got := run(in.model), run(keeping)
		if guidance.Borrows(keeping) || len(keeping.kept) == 0 {
			t.Fatalf("%s: the keeping model borrows (%v) or was never called (%d calls)", in.id, guidance.Borrows(keeping), len(keeping.kept))
		}
		distinct := map[*sqlir.Query]bool{}
		for _, k := range keeping.kept {
			distinct[k.q] = true
			if now := k.q.String(); now != k.was {
				t.Fatalf("%s: a kept query changed after its call:\n was %s\n now %s", in.id, k.was, now)
			}
		}
		if len(distinct) != len(keeping.kept) {
			t.Errorf("%s: %d queries kept from %d expansions; want one of its own each", in.id, len(distinct), len(keeping.kept))
		}
		if got.States != want.States || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("%s: keeping model searched %d states for %d candidates, borrowing one %d for %d",
				in.id, got.States, len(got.Candidates), want.States, len(want.Candidates))
		}
		for i, c := range got.Candidates {
			if w := want.Candidates[i]; c.Query.String() != w.Query.String() || c.Confidence != w.Confidence {
				t.Errorf("%s: candidate %d is %s (%g), want %s (%g)", in.id, i+1, c.Query, c.Confidence, w.Query, w.Confidence)
			}
		}
	}
}

// TestChildAllocations bounds what a child costs, from its generation to
// the end of its cascade: nothing when the cascade rejects it without
// database work — by-column and by-row answers the memo has included — and
// nothing either for one that passes, once its slot is handed back as the
// search hands back every popped state's. A child with holes left is queued
// as its parent's kept query and its decision, and owes its cascade, which
// runs on its own query when it is popped (one Apply into the search's cur:
// TestPopAllocations).
func TestChildAllocations(t *testing.T) {
	db := movieDB()
	title, year := db.Schema.Catalog().MustCol("movie", "title"), db.Schema.Catalog().MustCol("movie", "year")
	movie, err := db.Schema.Catalog().Path("movie")
	if err != nil {
		t.Fatal(err)
	}
	// expanded is a popped state being expanded, and its kept query.
	type expanded struct {
		st *state
		q  *sqlir.Query
	}
	type childCase struct {
		name   string
		parent expanded
		dec    sqlir.Decision
		stage  verify.Stage // where it is rejected; "" when it is queued
	}
	// chain is a verified state deciding ds after the root, which has no
	// proof to pass on.
	root := expanded{&state{}, sqlir.NewQuery()}
	chain := func(ds ...sqlir.Decision) expanded {
		q := root.q
		for _, d := range ds {
			q = derive(q, d)
		}
		return expanded{&state{depth: int32(len(ds)), verified: true}, q}
	}
	// run considers each case's child in a search under sketch the way
	// Enumerate does with one option of the expansion of its parent, and
	// counts what a repeat costs: the first look has filled the memos.
	run := func(sketch *tsq.TSQ, cases ...childCase) {
		e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), sketch, nil), Options{})
		s := e.newSearch(context.Background(), "titles", nil)
		defer s.close()
		s.queue.pop() // the root: a case's child is then alone in the frontier
		queue := func(p expanded, o option) {
			r := s.verifyChild(p.q, p.st.verified, o.dec)
			if r.complete {
				t.Fatalf("%s is complete", r.q)
			}
			s.child(p.st, p.q, &o, &r)
		}
		// popped queues the child, pops it, checks it and hands its slot
		// back, and reports where it was rejected: "" when it passed.
		popped := func(p expanded, o option) verify.Stage {
			queue(p, o)
			n := s.queue.pop()
			out, err := s.check(n, s.replay(n))
			if err != nil {
				t.Fatal(err)
			}
			s.queue.discard(n)
			if out.OK {
				return ""
			}
			return out.Stage
		}
		for _, tc := range cases {
			o := option{tc.dec, math.Log(0.5)}
			if stage := popped(tc.parent, o); stage != tc.stage {
				t.Fatalf("%s: rejected at %q, want %q", tc.name, stage, tc.stage)
			}
			if n := testing.AllocsPerRun(1000, func() { popped(tc.parent, o) }); n != 0 {
				t.Errorf("%s: a child cost %.0f allocations, want 0", tc.name, n)
			}
		}
	}

	parent := chain(
		sqlir.Decision{Kind: sqlir.DecideKeywords, Where: true},
		sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 2},
		sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 0, Col: &title},
	)
	run(&tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber},
		Tuples: []tsq.Tuple{{tsq.Exact(text("No Such Film")), tsq.Empty()}},
	},
		childCase{"clauses", root, sqlir.Decision{Kind: sqlir.DecideKeywords, OrderBy: true}, verify.StageClauses},
		childCase{"semantics", parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggAvg}, verify.StageSemantics},
		childCase{"column types", parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggCount}, verify.StageColumnTypes},
		childCase{"by column, memoized", parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggNone}, verify.StageByColumn},
		childCase{"queued: aggregate", parent, sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 1, Agg: sqlir.AggNone}, ""},
		childCase{"queued: projection", parent, sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 1, Col: &year}, ""},
	)

	// By row: the title and year of one movie, as a tuple that holds
	// (Forrest Gump, 1994) and one whose cells each occur but never in one
	// row (Forrest Gump, 2000). Deciding the WHERE count owes the row check.
	fromMovie := chain(
		sqlir.Decision{Kind: sqlir.DecideKeywords, Where: true},
		sqlir.Decision{Kind: sqlir.DecideSelectCount, Count: 2},
		sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 0, Col: &title},
		sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 0, Agg: sqlir.AggNone},
		sqlir.Decision{Kind: sqlir.DecideSelectColumn, Index: 1, Col: &year},
		sqlir.Decision{Kind: sqlir.DecideSelectAgg, Index: 1, Agg: sqlir.AggNone},
		sqlir.Decision{Kind: sqlir.DecideFrom, From: movie},
	)
	whereCount := sqlir.Decision{Kind: sqlir.DecideWhereCount, Count: 1}
	for _, c := range []struct {
		year  float64
		child childCase
	}{
		{2000, childCase{"by row, memoized", fromMovie, whereCount, verify.StageByRow}},
		{1994, childCase{"queued: by row memoized", fromMovie, whereCount, ""}},
	} {
		run(&tsq.TSQ{
			Types:  []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber},
			Tuples: []tsq.Tuple{{tsq.Exact(text("Forrest Gump")), tsq.Exact(num(c.year))}},
		}, c.child)
	}
}

// TestPopAllocations: a queued state is written once into a slot of the
// frontier's chunks and its query is built, when it is popped, by one Apply
// of its decision to its base, the kept query of the state it extends. So
// pushing a state costs at most its share of a chunk — 1/128 of an
// allocation, amortised, when the chunk pool has none to give — popping and
// materialising it costs nothing, whatever the depth of its base, and so
// does handing its slot back. Keeping an expanded state's query costs at most
// its share of the store's slabs: a header, and a run of the one slice its
// decision wrote.
func TestPopAllocations(t *testing.T) {
	db := movieDB()
	e := New(db, guidance.NewLexicalModel(), verify.New(db, semrules.Default(), nil, nil), Options{})
	s := e.newSearch(context.Background(), "titles", nil)
	defer s.close()
	root := s.queue.pop()

	title, year := db.Schema.Catalog().MustCol("movie", "title"), db.Schema.Catalog().MustCol("movie", "year")
	movie, err := db.Schema.Catalog().Path("movie")
	if err != nil {
		t.Fatal(err)
	}
	base := s.kept.keep(s.replay(root), nil)
	for _, d := range []sqlir.Decision{
		{Kind: sqlir.DecideKeywords, Where: true, OrderBy: true},
		{Kind: sqlir.DecideSelectCount, Count: 2},
		{Kind: sqlir.DecideSelectColumn, Index: 0, Col: &title},
		{Kind: sqlir.DecideSelectAgg, Index: 0},
		{Kind: sqlir.DecideSelectColumn, Index: 1, Col: &year},
		{Kind: sqlir.DecideSelectAgg, Index: 1, Agg: sqlir.AggMax},
		{Kind: sqlir.DecideFrom, From: movie},
		{Kind: sqlir.DecideWhereCount, Count: 1},
		{Kind: sqlir.DecidePredColumn, Index: 0, Col: &year},
		{Kind: sqlir.DecidePredOp, Index: 0, Op: sqlir.OpLt},
	} {
		base = s.kept.keep(s.cur.Apply(base, d), base)
	}
	s.queue.discard(root)
	v := num(1995)
	value := sqlir.Decision{Kind: sqlir.DecidePredValue, Val: &v}
	const states, runs = 4 * chunkLen, 10
	// The key slice, the free list and the chunk lists grow by doubling;
	// room is made for them up front, so what is counted is the slots and
	// the slabs' chunks.
	s.queue.keys = slices.Grow(s.queue.keys, (runs+1)*states)
	s.queue.free = slices.Grow(s.queue.free, (runs+1)*states)
	s.queue.chunks = slices.Grow(s.queue.chunks, (runs+1)*states/chunkLen+1)
	seq := 0
	pushAll := func() {
		for range states {
			seq++
			s.queue.push(state{base: base, dec: value, depth: 11}, 1, seq)
		}
	}
	popAll := func(discard bool) {
		for range states {
			n := s.queue.pop()
			if q := s.replay(n); !q.Where.Preds[0].ValSet {
				t.Fatalf("popped %s, want its predicate value decided", q)
			}
			if discard {
				s.queue.discard(n)
			}
		}
	}
	if n := testing.AllocsPerRun(runs, pushAll) / states; n > 1.0/chunkLen {
		t.Errorf("a push cost %.4f allocations amortised, want at most 1/%d", n, chunkLen)
	}
	if n := testing.AllocsPerRun(runs, func() { popAll(false) }); n != 0 {
		t.Errorf("%d pops cost %.0f allocations, want none", states, n)
	}
	if n := testing.AllocsPerRun(runs, func() { pushAll(); popAll(true) }); n != 0 {
		t.Errorf("%d pushes into handed-back slots and their pops cost %.0f allocations, want none", states, n)
	}

	var k store // a store the pool never filled: every chunk is new
	k.headers.chunks = slices.Grow(k.headers.chunks, (runs+1)*states/slabLen+1)
	k.preds.chunks = slices.Grow(k.preds.chunks, (runs+1)*states/slabLen+1)
	child := s.cur.Apply(base, value)
	if n := testing.AllocsPerRun(runs, func() {
		for range states {
			k.keep(child, base)
		}
	}) / states; n > 2.0/slabLen {
		t.Errorf("a keep cost %.4f allocations amortised, want at most 2/%d: a header and a predicate slice", n, slabLen)
	}
	if kept := k.keep(child, base); kept.String() != child.String() || &kept.Where.Preds[0] == &child.Where.Preds[0] || &kept.Select[0] != &base.Select[0] {
		t.Errorf("kept %s: it must copy the predicates its decision wrote and share the projections of its base", kept)
	}
	if wide := k.sel.take(slabLen + 1); len(wide) != slabLen+1 {
		t.Errorf("a run of %d projections, wider than a chunk, came back %d long", slabLen+1, len(wide))
	}
}
