package simulate

import (
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

func TestSystemString(t *testing.T) {
	if SystemDuoquest.String() != "Duoquest" || SystemNLI.String() != "NLI" || SystemPBE.String() != "PBE" {
		t.Error("system names")
	}
}

func TestRunTrialDuoquestSucceedsOnEasyTask(t *testing.T) {
	tasks, _ := dataset.PBEStudyTasks()
	r := NewRunner()
	// D2 is a single-table medium task Duoquest solves quickly.
	var d2 *dataset.Task
	for _, task := range tasks {
		if task.ID == "D2" {
			d2 = task
		}
	}
	tr, err := r.RunTrial(d2, SystemDuoquest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Success {
		t.Errorf("D2 should succeed: %+v", tr)
	}
	if tr.Duration <= 0 || tr.Duration > r.Params.Budget {
		t.Errorf("duration out of range: %v", tr.Duration)
	}
	if tr.Examples < 1 || tr.Examples > 2 {
		t.Errorf("Duoquest uses 1-2 examples: %d", tr.Examples)
	}
}

func TestRunTrialDeterministicPerUser(t *testing.T) {
	tasks, _ := dataset.PBEStudyTasks()
	r := NewRunner()
	a, err := r.RunTrial(tasks[0], SystemDuoquest, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunTrial(tasks[0], SystemDuoquest, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Success != b.Success || a.Duration != b.Duration || a.Examples != b.Examples {
		t.Errorf("same user+task should be deterministic: %+v vs %+v", a, b)
	}
}

func TestRunTrialPBE(t *testing.T) {
	tasks, _ := dataset.PBEStudyTasks()
	r := NewRunner()
	// D2 (continent filter) is squarely in SQuID's wheelhouse.
	var d2, d3 *dataset.Task
	for _, task := range tasks {
		switch task.ID {
		case "D2":
			d2 = task
		case "D3":
			d3 = task
		}
	}
	tr, err := r.RunTrial(d2, SystemPBE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Success {
		t.Errorf("PBE should handle D2: %+v", tr)
	}
	if tr.Examples < 2 {
		t.Errorf("PBE users enter at least 2 examples: %d", tr.Examples)
	}
	// D3 (grouped count threshold) is harder for PBE's single-shot output;
	// just assert the trial completes without error.
	if _, err := r.RunTrial(d3, SystemPBE, 0); err != nil {
		t.Fatal(err)
	}
}

func TestResultsMatch(t *testing.T) {
	text := sqlir.NewText
	num := sqlir.NewNumber
	mk := func(rows ...[]sqlir.Value) *sqlexec.Result {
		return &sqlexec.Result{Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber}, Rows: rows}
	}
	a := mk([]sqlir.Value{text("x"), num(1)}, []sqlir.Value{text("y"), num(2)})
	b := mk([]sqlir.Value{text("y"), num(2)}, []sqlir.Value{text("x"), num(1)})
	if !resultsMatch(a, b, false) {
		t.Error("unordered match should ignore row order")
	}
	if resultsMatch(a, b, true) {
		t.Error("ordered match should respect row order")
	}
	if !resultsMatch(a, a, true) {
		t.Error("identical ordered results match")
	}
	c := mk([]sqlir.Value{text("x"), num(1)})
	if resultsMatch(a, c, false) {
		t.Error("row count must match")
	}
	d := &sqlexec.Result{Types: []sqlir.Type{sqlir.TypeText}, Rows: [][]sqlir.Value{{text("x")}}}
	if resultsMatch(c, d, false) {
		t.Error("column types must match")
	}
}

// TestStudyShape runs a reduced NLI study and checks the paper's headline
// relationships: Duoquest's overall success strictly exceeds NLI's, and
// Duoquest succeeds on the hard tasks where NLI scores zero.
func TestStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full study simulation is slow")
	}
	tasks, _ := dataset.NLIStudyTasks()
	r := NewRunner()
	sr, err := r.RunStudy(tasks, [2]System{SystemDuoquest, SystemNLI}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dqOK, dqTotal := sr.OverallSuccess(SystemDuoquest)
	nliOK, nliTotal := sr.OverallSuccess(SystemNLI)
	if dqTotal == 0 || nliTotal == 0 {
		t.Fatal("no trials recorded")
	}
	dqPct := float64(dqOK) / float64(dqTotal)
	nliPct := float64(nliOK) / float64(nliTotal)
	if dqPct <= nliPct {
		t.Errorf("Duoquest (%.0f%%) should beat NLI (%.0f%%)", 100*dqPct, 100*nliPct)
	}
	if dqPct < 0.5 {
		t.Errorf("Duoquest overall success too low: %.0f%%", 100*dqPct)
	}
	// Counterbalancing: every task × system has trials.
	for _, task := range sr.Tasks {
		for _, sys := range sr.Systems {
			if _, ok := sr.SuccessPct[task][sys]; !ok {
				t.Errorf("missing trials for %s on %s", task, sys)
			}
		}
	}
}

func TestSortTuplesByGold(t *testing.T) {
	tasks, _ := dataset.MASTasks()
	var a2 *dataset.Task
	for _, task := range tasks {
		if task.ID == "A2" {
			a2 = task
		}
	}
	// RunTrial on a sorted task exercises sortTuplesByGold internally.
	r := NewRunner()
	if _, err := r.RunTrial(a2, SystemDuoquest, 2); err != nil {
		t.Fatal(err)
	}
}

// The NLI baseline is synthesize given no sketch. nliRun runs it over
// nliDB with the enumerator's candidate bound and a 20 000-state budget.
func nliRun(t *testing.T, nlq string, lits []sqlir.Value, maxCandidates int, emit func(enumerate.Candidate) bool) []enumerate.Candidate {
	t.Helper()
	r := &Runner{Params: UserParams{Budget: 20 * time.Millisecond, LatencyScale: time.Microsecond, MaxCandidates: maxCandidates}}
	task := &dataset.Task{ID: "nli", DB: nliDB(), NLQ: nlq, Literals: lits}
	var out []enumerate.Candidate
	err := r.synthesize(task, nil, func(c enumerate.Candidate) bool {
		out = append(out, c)
		return emit == nil || emit(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func nliDB() *storage.Database {
	movie := storage.NewTable("movie", "mid",
		storage.Column{Name: "mid", Type: sqlir.TypeNumber},
		storage.Column{Name: "title", Type: sqlir.TypeText},
		storage.Column{Name: "year", Type: sqlir.TypeNumber},
	)
	movie.MustInsert(sqlir.NewInt(1), sqlir.NewText("Forrest Gump"), sqlir.NewInt(1994))
	movie.MustInsert(sqlir.NewInt(2), sqlir.NewText("Gravity"), sqlir.NewInt(2013))
	return storage.NewDatabase("m", storage.NewSchema(movie))
}

func TestNLISynthesizeRankedList(t *testing.T) {
	cands := nliRun(t, "movie titles", nil, 10, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	gold := sqlparse.MustParse(nliDB().Schema, "SELECT title FROM movie")
	if !sqlir.Equivalent(cands[0].Query, gold) {
		t.Errorf("top candidate = %s", cands[0].Query)
	}
}

// TestNLIIsUnsound: without a TSQ, the NLI can return candidates that would
// violate a sketch — the soundness gap of Table 1.
func TestNLIIsUnsound(t *testing.T) {
	db := nliDB()
	sketch := &tsq.TSQ{Tuples: []tsq.Tuple{{tsq.Exact(sqlir.NewText("Forrest Gump"))}}}
	violations := 0
	for _, c := range nliRun(t, "movies before 1995", []sqlir.Value{sqlir.NewInt(1995)}, 30, nil) {
		r, err := sqlexec.Execute(db, c.Query)
		if err != nil {
			continue
		}
		if !sketch.Satisfies(r) {
			violations++
		}
	}
	if violations == 0 {
		t.Error("expected at least one candidate violating the sketch")
	}
}

func TestNLIEmitStops(t *testing.T) {
	cands := nliRun(t, "titles", nil, 0, func(enumerate.Candidate) bool { return false })
	if len(cands) != 1 {
		t.Errorf("emit calls = %d", len(cands))
	}
}

// TestNLIHonorsLiterals: candidates must use every tagged literal.
func TestNLIHonorsLiterals(t *testing.T) {
	for _, c := range nliRun(t, "movies before 1995", []sqlir.Value{sqlir.NewInt(1995)}, 20, nil) {
		found := false
		for _, lit := range c.Query.Literals() {
			if lit.Equal(sqlir.NewInt(1995)) {
				found = true
			}
		}
		if !found {
			t.Errorf("candidate ignores tagged literal: %s", c.Query)
		}
	}
}
