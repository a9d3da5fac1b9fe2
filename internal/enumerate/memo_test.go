package enumerate

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// question is one guidance module asked about one slot of a partial query.
type question struct {
	module string
	// ask puts the question to m in ctx and drops the answer.
	ask func(m guidance.Model, ctx *guidance.Context)
	// same reports whether ma in a and mb in b answer alike, class for
	// class and probability bit for bit, each log-probability being the
	// logarithm of its probability bit for bit, and shows both answers when
	// not.
	same func(ma guidance.Model, a *guidance.Context, mb guidance.Model, b *guidance.Context) (bool, string)
}

func newQuestion[T comparable](module string, ask func(guidance.Model, *guidance.Context) []guidance.Scored[T]) question {
	return question{
		module: module,
		ask:    func(m guidance.Model, ctx *guidance.Context) { ask(m, ctx) },
		same: func(ma guidance.Model, a *guidance.Context, mb guidance.Model, b *guidance.Context) (bool, string) {
			x, y := ask(ma, a), ask(mb, b)
			alike := len(x) == len(y)
			for i := 0; alike && i < len(x); i++ {
				alike = x[i].Class == y[i].Class && math.Float64bits(x[i].Prob) == math.Float64bits(y[i].Prob) &&
					logOf(x[i]) && logOf(y[i])
			}
			if alike {
				return true, ""
			}
			return false, fmt.Sprintf("%v\n  vs %v", x, y)
		},
	}
}

// logOf reports whether s's log-probability is the logarithm of its
// probability, bit for bit.
func logOf[T any](s guidance.Scored[T]) bool {
	return math.Float64bits(s.Log) == math.Float64bits(math.Log(s.Prob))
}

// questions asks every module about every slot of q it has an argument for:
// each projection and predicate index up to the next one, the aggregate of
// each decided projection, and the operator and values of each decided
// predicate column.
func questions(q *sqlir.Query) []question {
	type m = guidance.Model
	type c = guidance.Context
	qs := []question{
		newQuestion("Keywords", func(m m, c *c) []guidance.Scored[guidance.KeywordSet] { return m.Keywords(c) }),
		newQuestion("SelectCount", func(m m, c *c) []guidance.Scored[int] { return m.SelectCount(c) }),
		newQuestion("WhereCount", func(m m, c *c) []guidance.Scored[int] { return m.WhereCount(c) }),
		newQuestion("WhereConj", func(m m, c *c) []guidance.Scored[sqlir.LogicalOp] { return m.WhereConj(c) }),
		newQuestion("HavingPresent", func(m m, c *c) []guidance.Scored[bool] { return m.HavingPresent(c) }),
		newQuestion("HavingAggCol", func(m m, c *c) []guidance.Scored[guidance.AggCol] { return m.HavingAggCol(c) }),
		newQuestion("HavingOp", func(m m, c *c) []guidance.Scored[sqlir.Op] { return m.HavingOp(c) }),
		newQuestion("HavingValue", func(m m, c *c) []guidance.Scored[sqlir.Value] { return m.HavingValue(c) }),
		newQuestion("OrderKey", func(m m, c *c) []guidance.Scored[guidance.AggCol] { return m.OrderKey(c) }),
		newQuestion("OrderDir", func(m m, c *c) []guidance.Scored[guidance.DirLimit] { return m.OrderDir(c) }),
	}
	for idx := range len(q.Select) + 1 {
		qs = append(qs, newQuestion("SelectColumn", func(m m, c *c) []guidance.Scored[sqlir.ColumnRef] { return m.SelectColumn(c, idx) }))
	}
	for idx, s := range q.Select {
		if s.ColSet {
			qs = append(qs, newQuestion("SelectAgg", func(m m, c *c) []guidance.Scored[sqlir.AggFunc] { return m.SelectAgg(c, idx, s.Col) }))
		}
	}
	for idx := range len(q.Where.Preds) + 1 {
		qs = append(qs, newQuestion("WhereColumn", func(m m, c *c) []guidance.Scored[sqlir.ColumnRef] { return m.WhereColumn(c, idx) }))
	}
	for _, p := range q.Where.Preds {
		if !p.ColSet {
			continue
		}
		qs = append(qs, newQuestion("WhereOp", func(m m, c *c) []guidance.Scored[sqlir.Op] { return m.WhereOp(c, p.Col) }))
		for _, op := range []sqlir.Op{sqlir.OpEq, sqlir.OpLike} {
			qs = append(qs, newQuestion("WhereValue", func(m m, c *c) []guidance.Scored[sqlir.Value] { return m.WhereValue(c, p.Col, op) }))
		}
	}
	return qs
}

// TestMemoisedModulesAreTheComputation: a module's answer comes from the
// request's memo, filed under what the module reads of the partial query.
// Over the Spider walk, with and without the TSQ, every module's answer
// from the search's own context — which has answered the search's questions
// about every state before — is the answer a fresh context computes for the
// same partial query: class for class, probability bit for bit, and each
// log-probability the logarithm of its probability bit for bit. A model that
// is not a guidance.Borrower, handed a copy of the query at every
// expansion, leaves as many answers memoised as the borrowing model; and a
// question asked again allocates nothing, for every one of the 15 modules.
func TestMemoisedModulesAreTheComputation(t *testing.T) {
	inputs := walkInputs(t)
	asked := 0
	for _, in := range inputs {
		for _, sketch := range []*tsq.TSQ{in.sketch, nil} {
			walk(t, in, sketch, ModeGPQE, 250, observer{expanded: func(x expansion) {
				for _, qu := range questions(x.parent) {
					// A context of its own per question: no answer filed
					// before, under a key another question shares, can
					// stand in for this one.
					fresh := guidance.NewContextDB(in.nlq, in.lits, in.db, x.parent)
					if ok, diff := qu.same(in.model, x.ctx, in.model, fresh); !ok {
						t.Fatalf("%s: %s of %s: memoised\n  %s (fresh context second)", in.id, qu.module, x.parent, diff)
					}
					asked++
				}
			}})
		}

		// The same walk under a wrapper that gets a clone per expansion
		// files its answers under the same keys.
		memoised := func(m guidance.Model) int {
			var ctx *guidance.Context
			walk(t, walkInput{in.id, in.db, m, in.sketch, in.nlq, in.lits}, in.sketch, ModeGPQE, 250, observer{expanded: func(x expansion) { ctx = x.ctx }})
			return ctx.Memoised()
		}
		wrapped := struct{ guidance.Model }{in.model}
		if guidance.Borrows(wrapped) {
			t.Fatal("the wrapper borrows")
		}
		if got, want := memoised(wrapped), memoised(in.model); got != want || want == 0 {
			t.Errorf("%s: a model handed clones left %d answers memoised, the borrowing model %d", in.id, got, want)
		}
	}
	if asked == 0 {
		t.Fatal("no question was asked")
	}

	// A gold query decides every slot, so its questions reach every module.
	// Two of its predicates compare columns of one type with literals, so
	// WhereValue's answer depends on the values already used.
	i := slices.IndexFunc(spiderTasks(t), func(st spiderTask) bool {
		p := st.Gold.Where.Preds
		return len(p) >= 2 && p[0].Val.Kind == sqlir.KindNumber && p[1].Val.Kind == sqlir.KindNumber
	})
	if i < 0 {
		t.Fatal("no task has two numeric predicates")
	}
	st := spiderTasks(t)[i]
	qs := questions(st.Gold)
	modules := map[string]bool{}
	for _, qu := range qs {
		modules[qu.module] = true
	}
	if len(modules) != 15 {
		t.Fatalf("%s: the questions reach %d modules, want 15", st.ID, len(modules))
	}
	base := guidance.NewLexicalModel()
	shared := guidance.NewContextDB(st.NLQ, st.Literals, st.DB, st.Gold)
	// Gold's values undecided from the last one on: each query uses fewer.
	for k := len(st.Gold.Where.Preds); k >= 0; k-- {
		q := st.Gold.Clone()
		for j := k; j < len(q.Where.Preds); j++ {
			q.Where.Preds[j].Val, q.Where.Preds[j].ValSet = sqlir.Value{}, false
		}
		fresh := guidance.NewContextDB(st.NLQ, st.Literals, st.DB, q)
		for _, qu := range questions(q) {
			if ok, diff := qu.same(base, shared.WithQuery(q), base, fresh); !ok {
				t.Fatalf("%s: %s of %s: memoised\n  %s (fresh context second)", st.ID, qu.module, q, diff)
			}
		}
	}
	for _, qu := range qs {
		if n := testing.AllocsPerRun(20, func() { qu.ask(base, shared) }); n != 0 {
			t.Errorf("%s: %s asked again cost %.0f allocations, want 0", st.ID, qu.module, n)
		}
	}
}
