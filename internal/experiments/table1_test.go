package experiments

// Table 1's capability matrix, asserted executably: Duoquest is sound,
// supports joins, selections and grouping, requires no schema knowledge
// (TSQs are positional), accepts partial tuples, and assumes an open world.
// The PBE baseline rejects partial tuples; the NLI baseline offers no
// soundness guarantee (TestNLIIsUnsound in internal/simulate).

import (
	"context"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/pbe"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// TestTable1DuoquestSoundness: every emitted candidate satisfies the TSQ,
// even under an adversarially vague NLQ.
func TestTable1DuoquestSoundness(t *testing.T) {
	tasks, db := dataset.MASTasks()
	task := tasks[12] // D2
	sketch := &tsq.TSQ{
		Types:  []sqlir.Type{sqlir.TypeText},
		Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("University of Oxford"))}},
	}
	v := verify.New(db, semrules.Default(), sketch, task.Literals)
	e := enumerate.New(db, guidance.NewLexicalModel(), v, enumerate.Options{
		MaxCandidates: 15, MaxStates: StateBudget,
	})
	res, err := e.Enumerate(context.Background(), "show stuff", task.Literals, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		r, err := sqlexec.Execute(db, c.Query)
		if err != nil {
			t.Fatal(err)
		}
		if !sketch.Satisfies(r) {
			t.Errorf("unsound candidate: %s", c.Query)
		}
	}
}

// TestTable1PartialTuplesAndOpenWorld: a TSQ with an empty cell and a range
// cell (partial tuple) over a strict subset of the result (open world) still
// admits the gold query.
func TestTable1PartialTuplesAndOpenWorld(t *testing.T) {
	tasks, db := dataset.MASTasks()
	var a1 *dataset.Task
	for _, task := range tasks {
		if task.ID == "A1" {
			a1 = task
		}
	}
	gold, err := a1.GoldResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(gold.Rows) < 3 {
		t.Fatal("A1 needs several rows for the open-world check")
	}
	// One partial tuple: exact title, year as a range. The result set has
	// dozens more rows — an open world.
	row := gold.Rows[0]
	sketch := &tsq.TSQ{
		Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber},
		Tuples: []tsq.Tuple{{
			tsq.Exact(row[0]),
			tsq.Range(row[1].Num-3, row[1].Num+3),
		}},
	}
	if !sketch.Satisfies(gold) {
		t.Fatal("partial/open-world sketch should accept the gold result")
	}
	v := verify.New(db, semrules.Default(), sketch, a1.Literals)
	e := enumerate.New(db, guidance.NewLexicalModel(), v, enumerate.Options{
		MaxCandidates: 10, MaxStates: StateBudget,
	})
	foundGold := false
	_, err = e.Enumerate(context.Background(), a1.NLQ, a1.Literals, func(c enumerate.Candidate) bool {
		if sqlir.Equivalent(c.Query, a1.Gold) {
			foundGold = true
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !foundGold {
		t.Error("gold query not found under a partial, open-world sketch")
	}
}

// TestTable1PBERejectsPartialTuples: the PBE baseline cannot consume
// partial tuples (its ✗ cell in Table 1).
func TestTable1PBERejectsPartialTuples(t *testing.T) {
	_, db := dataset.MASTasks()
	sys := pbe.New(db)
	out, err := sys.Synthesize([]tsq.Tuple{{tsq.Exact(sqlir.NewText("SIGMOD")), tsq.Empty()}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Unsupported {
		t.Error("PBE should reject partial tuples")
	}
}

// TestTable1GroupingExpressiveness: Duoquest synthesizes grouped aggregate
// queries (γ column of Table 1) — pinned by the A4 task.
func TestTable1GroupingExpressiveness(t *testing.T) {
	tasks, db := dataset.MASTasks()
	var a4 *dataset.Task
	for _, task := range tasks {
		if task.ID == "A4" {
			a4 = task
		}
	}
	sketch, err := dataset.SynthesizeTSQ(a4, dataset.DetailFull, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(db, semrules.Default(), sketch, a4.Literals)
	// The state cap is a ceiling, not the expected search: it stops at the
	// gold query.
	e := enumerate.New(db, guidance.NewLexicalModel(), v, enumerate.Options{
		MaxCandidates: 10, MaxStates: StateBudget,
	})
	found := false
	_, err = e.Enumerate(context.Background(), a4.NLQ, a4.Literals, func(c enumerate.Candidate) bool {
		if sqlir.Equivalent(c.Query, a4.Gold) {
			found = true
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("grouped HAVING query not synthesized")
	}
}
