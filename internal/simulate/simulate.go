// Package simulate models the paper's user studies (§5.1–§5.3) with a
// seeded stochastic user: 16 subjects, a 5-minute budget per task trial, a
// 10-fact bank of domain knowledge, and the per-system interaction flows the
// paper describes — typing an NLQ, entering example tuples, scanning ranked
// candidates with query previews (Duoquest/NLI), or reviewing abduced
// filters (PBE).
//
// All behavioural parameters are explicit in UserParams; DESIGN.md §3
// documents the substitution of human subjects by this model.
package simulate

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/nli"
	"github.com/duoquest/duoquest/internal/pbe"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// System identifies the system under trial.
type System uint8

// Systems compared in the user studies.
const (
	SystemDuoquest System = iota
	SystemNLI
	SystemPBE
)

// String names the system.
func (s System) String() string {
	switch s {
	case SystemDuoquest:
		return "Duoquest"
	case SystemNLI:
		return "NLI"
	default:
		return "PBE"
	}
}

// UserParams are the simulated user's behavioural constants.
type UserParams struct {
	// Budget is the per-trial time limit (5 minutes in the study).
	Budget time.Duration
	// TypeWord is the time to type one NLQ word.
	TypeWord time.Duration
	// EnterCell is the time to enter one example cell (with autocomplete).
	EnterCell time.Duration
	// ReadCandidate is the time to inspect one plausible candidate SQL
	// query in detail.
	ReadCandidate time.Duration
	// SkimCandidate is the time to dismiss a visibly wrong candidate
	// (wrong projection shape at a glance).
	SkimCandidate time.Duration
	// PreviewCheck is the extra time for a "Query Preview" fact check.
	PreviewCheck time.Duration
	// ReviewFilters is the time to review PBE's abduced filter list.
	ReviewFilters time.Duration
	// RecognizeProb is the chance of recognising the desired query when it
	// is inspected.
	RecognizeProb float64
	// LatencyScale is the simulated time the engine takes per explored
	// state, standing in for the paper's GPU inference latency: a
	// candidate arrives LatencyScale × Candidate.States into the search.
	// A candidate arriving after Budget is never read, so a trial's search
	// stops at Budget / LatencyScale states.
	LatencyScale time.Duration
	// MaxCandidates bounds the ranked list length per trial.
	MaxCandidates int
}

// DefaultUserParams mirrors the study setup (5-minute budget) with
// inspection costs in the range the paper's per-task times imply.
func DefaultUserParams() UserParams {
	return UserParams{
		Budget:        5 * time.Minute,
		TypeWord:      2200 * time.Millisecond,
		EnterCell:     4 * time.Second,
		ReadCandidate: 5 * time.Second,
		SkimCandidate: 1500 * time.Millisecond,
		PreviewCheck:  6 * time.Second,
		ReviewFilters: 25 * time.Second,
		RecognizeProb: 0.95,
		LatencyScale:  200 * time.Microsecond,
		MaxCandidates: 120,
	}
}

// Trial is the outcome of one (user, task, system) trial.
type Trial struct {
	TaskID   string
	System   System
	User     int
	Success  bool
	Duration time.Duration // simulated user time
	Examples int           // example tuples entered
}

// Runner executes user-study trials.
type Runner struct {
	Params UserParams
}

// NewRunner builds a runner with default parameters.
func NewRunner() *Runner { return &Runner{Params: DefaultUserParams()} }

// RunTrial simulates one trial of a task on a system by one user.
func (r *Runner) RunTrial(task *dataset.Task, sys System, user int) (*Trial, error) {
	seed := int64(user)*1_000_003 + int64(len(task.ID))*7919 + int64(task.ID[0])*131 + int64(task.ID[len(task.ID)-1])
	rng := rand.New(rand.NewSource(seed))
	switch sys {
	case SystemPBE:
		return r.runPBETrial(task, user, rng)
	default:
		return r.runRankedListTrial(task, sys, user, rng)
	}
}

// goldRows executes the gold query once for fact checking.
func goldRows(task *dataset.Task) (*sqlexec.Result, error) {
	return sqlexec.Execute(task.DB, task.Gold)
}

// resultsMatch compares a candidate's result with the gold result: equal
// multisets of rows, in order when the gold query sorts.
func resultsMatch(gold, cand *sqlexec.Result, ordered bool) bool {
	if len(gold.Rows) != len(cand.Rows) || len(gold.Types) != len(cand.Types) {
		return false
	}
	for i := range gold.Types {
		if gold.Types[i] != cand.Types[i] {
			return false
		}
	}
	key := func(row []sqlir.Value) string {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		return b.String()
	}
	if ordered {
		for i := range gold.Rows {
			if key(gold.Rows[i]) != key(cand.Rows[i]) {
				return false
			}
		}
		return true
	}
	counts := map[string]int{}
	for _, row := range gold.Rows {
		counts[key(row)]++
	}
	for _, row := range cand.Rows {
		counts[key(row)]--
		if counts[key(row)] < 0 {
			return false
		}
	}
	return true
}

// runRankedListTrial simulates the Duoquest and NLI flows: type the NLQ,
// optionally enter example tuples (Duoquest), then scan the ranked list,
// previewing candidates against the fact bank.
func (r *Runner) runRankedListTrial(task *dataset.Task, sys System, user int, rng *rand.Rand) (*Trial, error) {
	p := r.Params
	trial := &Trial{TaskID: task.ID, System: sys, User: user}

	facts, err := dataset.FactBank(task, rng.Int63())
	if err != nil {
		return nil, err
	}
	gold, err := goldRows(task)
	if err != nil {
		return nil, err
	}

	elapsed := time.Duration(0)
	// Type the NLQ.
	words := len(strings.Fields(task.NLQ))
	elapsed += time.Duration(words) * p.TypeWord

	var sketch *tsq.TSQ
	if sys == SystemDuoquest {
		// The user supplies 1–2 example tuples from the fact bank (§5.2:
		// mean examples fell between 1 and 1.5 per task).
		trial.Examples = 1 + rng.Intn(2)
		if trial.Examples > len(facts) {
			trial.Examples = len(facts)
		}
		sketch = &tsq.TSQ{
			Types:  append([]sqlir.Type{}, gold.Types...),
			Sorted: task.Gold.OrderByState == sqlir.ClausePresent,
			Limit:  task.Gold.Limit,
		}
		for i := 0; i < trial.Examples; i++ {
			sketch.Tuples = append(sketch.Tuples, facts[i].Tuple)
			elapsed += time.Duration(len(facts[i].Tuple)) * p.EnterCell
		}
		if sketch.Sorted {
			// Order the example tuples as the gold result orders them
			// (the user knows the expected ordering of their own facts).
			sortTuplesByGold(sketch, gold)
		}
	}

	// Scan the ranked list as the engine emits it: the search stops once
	// the trial is decided.
	trial.Duration = p.Budget
	scan := func(c enumerate.Candidate) bool {
		arrival := time.Duration(c.States) * p.LatencyScale
		if arrival > elapsed {
			elapsed = arrival
		}
		// A glance at the projection shape dismisses obviously wrong
		// candidates cheaply (§5.1.4: "eyeballing the selection
		// predicates").
		if len(c.Query.Select) != len(gold.Types) {
			elapsed += p.SkimCandidate
			return elapsed <= p.Budget
		}
		elapsed += p.ReadCandidate
		if elapsed > p.Budget {
			return false
		}
		res, err := sqlexec.Execute(task.DB, c.Query)
		if err != nil {
			return true
		}
		correct := sqlir.Equivalent(c.Query, task.Gold) ||
			resultsMatch(gold, res, task.Gold.OrderByState == sqlir.ClausePresent)
		if !correct {
			// A preview against the facts rejects most wrong candidates
			// quickly; visibly inconsistent ones cost no preview.
			if dataset.VerifyAgainstFacts(res, facts) == len(facts) && sameWidth(res, gold) {
				elapsed += p.PreviewCheck
			}
			return true
		}
		// The desired query: the user recognises it with high probability
		// after a preview.
		elapsed += p.PreviewCheck
		if rng.Float64() < p.RecognizeProb {
			trial.Success = elapsed <= p.Budget
			trial.Duration = min(elapsed, p.Budget)
			return false
		}
		return true
	}
	if err := r.synthesize(task, sketch, sys, scan); err != nil {
		return nil, err
	}
	return trial, nil
}

func sameWidth(a, b *sqlexec.Result) bool { return len(a.Types) == len(b.Types) }

// sortTuplesByGold reorders sketch tuples to match the gold result order.
func sortTuplesByGold(sk *tsq.TSQ, gold *sqlexec.Result) {
	pos := func(tp tsq.Tuple) int {
		for i, row := range gold.Rows {
			probe := tsq.TSQ{Tuples: []tsq.Tuple{tp}}
			if probe.Satisfies(&sqlexec.Result{Types: gold.Types, Rows: [][]sqlir.Value{row}}) {
				return i
			}
		}
		return len(gold.Rows)
	}
	for i := 0; i < len(sk.Tuples); i++ {
		for j := i + 1; j < len(sk.Tuples); j++ {
			if pos(sk.Tuples[j]) < pos(sk.Tuples[i]) {
				sk.Tuples[i], sk.Tuples[j] = sk.Tuples[j], sk.Tuples[i]
			}
		}
	}
}

// synthesize runs the underlying engine for a ranked-list system, handing
// each candidate to emit as it is found.
func (r *Runner) synthesize(task *dataset.Task, sketch *tsq.TSQ, sys System, emit func(enumerate.Candidate) bool) error {
	p := r.Params
	maxStates := int(p.Budget / p.LatencyScale)
	if sys == SystemNLI {
		_, err := nli.New(task.DB).Synthesize(context.Background(), task.NLQ, task.Literals,
			nli.Options{MaxCandidates: p.MaxCandidates, MaxStates: maxStates}, emit)
		return err
	}
	v := verify.New(task.DB, semrules.Default(), sketch, task.Literals)
	e := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{
		Mode:          enumerate.ModeGPQE,
		MaxCandidates: p.MaxCandidates,
		MaxStates:     maxStates,
	})
	_, err := e.Enumerate(context.Background(), task.NLQ, task.Literals, emit)
	return err
}

// runPBETrial simulates the SQuID flow: enter 2–4 full example tuples, get
// one output, review the filter checklist.
func (r *Runner) runPBETrial(task *dataset.Task, user int, rng *rand.Rand) (*Trial, error) {
	p := r.Params
	trial := &Trial{TaskID: task.ID, System: SystemPBE, User: user}
	facts, err := dataset.FactBank(task, rng.Int63())
	if err != nil {
		return nil, err
	}

	// PBE requires full, exact tuples: project facts onto exact text cells
	// where possible (§5.3: users issue more examples on PBE, Figure 9).
	trial.Examples = 2 + rng.Intn(3)
	var examples []tsq.Tuple
	for _, f := range facts {
		if len(examples) >= trial.Examples {
			break
		}
		exact := true
		for _, c := range f.Tuple {
			if c.Kind != tsq.CellExact || c.Val.Kind != sqlir.KindText {
				exact = false
				break
			}
		}
		if exact {
			examples = append(examples, f.Tuple)
		}
	}
	trial.Examples = len(examples)

	elapsed := time.Duration(0)
	for _, ex := range examples {
		elapsed += time.Duration(len(ex)) * p.EnterCell
	}
	if len(examples) == 0 {
		// The task's facts cannot be expressed as full exact tuples: the
		// user cannot operate the system.
		trial.Duration = p.Budget
		return trial, nil
	}

	sys := pbe.New(task.DB, pbe.DefaultOptions())
	out, err := sys.Synthesize(examples)
	if err != nil {
		return nil, err
	}
	elapsed += p.ReviewFilters
	if elapsed > p.Budget {
		trial.Duration = p.Budget
		return trial, nil
	}
	if supported, _ := pbe.Supports(task.Gold, task.DB.Schema); supported && out.Correct(task.Gold) {
		// The user must check exactly the right filters in the suggested
		// list; longer lists invite mistakes.
		selectOK := 1 - 0.004*float64(len(out.Filters))
		if selectOK < 0.8 {
			selectOK = 0.8
		}
		trial.Success = rng.Float64() < selectOK
	}
	trial.Duration = elapsed
	return trial, nil
}

// StudyResult aggregates trials per task and system.
type StudyResult struct {
	Tasks   []string
	Systems []System
	// SuccessPct[task][system] is the % of successful trials (Figures 5, 7).
	SuccessPct map[string]map[System]float64
	// MeanTime[task][system] is the mean duration of successful trials
	// (Figures 6, 8); zero when no trial succeeded.
	MeanTime map[string]map[System]time.Duration
	// MeanExamples[task][system] is the mean example count of successful
	// trials (Figure 9).
	MeanExamples map[string]map[System]float64
	Trials       []*Trial
}

// RunStudy executes a within-subject study: nUsers users, each task tried on
// both systems following the paper's counterbalanced design (half the users
// see set 1 on system A first, half on system B), yielding nUsers/2 trials
// per (task, system).
func (r *Runner) RunStudy(tasks []*dataset.Task, systems [2]System, nUsers int) (*StudyResult, error) {
	sr := &StudyResult{
		Systems:      systems[:],
		SuccessPct:   map[string]map[System]float64{},
		MeanTime:     map[string]map[System]time.Duration{},
		MeanExamples: map[string]map[System]float64{},
	}
	half := len(tasks) / 2
	for _, task := range tasks {
		sr.Tasks = append(sr.Tasks, task.ID)
	}
	for user := 0; user < nUsers; user++ {
		for ti, task := range tasks {
			// Counterbalancing: the first half of users run the first
			// task set on systems[0]; the second half swap.
			sysIdx := 0
			if (ti >= half) != (user >= nUsers/2) {
				sysIdx = 1
			}
			trial, err := r.RunTrial(task, systems[sysIdx], user)
			if err != nil {
				return nil, err
			}
			sr.Trials = append(sr.Trials, trial)
		}
	}
	// Aggregate.
	type agg struct {
		n, ok    int
		dur      time.Duration
		examples int
	}
	stats := map[string]map[System]*agg{}
	for _, tr := range sr.Trials {
		if stats[tr.TaskID] == nil {
			stats[tr.TaskID] = map[System]*agg{}
		}
		if stats[tr.TaskID][tr.System] == nil {
			stats[tr.TaskID][tr.System] = &agg{}
		}
		a := stats[tr.TaskID][tr.System]
		a.n++
		if tr.Success {
			a.ok++
			a.dur += tr.Duration
			a.examples += tr.Examples
		}
	}
	for task, bySys := range stats {
		sr.SuccessPct[task] = map[System]float64{}
		sr.MeanTime[task] = map[System]time.Duration{}
		sr.MeanExamples[task] = map[System]float64{}
		for sys, a := range bySys {
			sr.SuccessPct[task][sys] = 100 * float64(a.ok) / float64(a.n)
			if a.ok > 0 {
				sr.MeanTime[task][sys] = a.dur / time.Duration(a.ok)
				sr.MeanExamples[task][sys] = float64(a.examples) / float64(a.ok)
			}
		}
	}
	return sr, nil
}

// OverallSuccess returns total successful trials and trial count for a
// system.
func (sr *StudyResult) OverallSuccess(sys System) (ok, total int) {
	for _, tr := range sr.Trials {
		if tr.System != sys {
			continue
		}
		total++
		if tr.Success {
			ok++
		}
	}
	return ok, total
}
