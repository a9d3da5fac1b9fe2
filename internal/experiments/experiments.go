// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic substrates: the dataset statistics
// (Table 5), the user studies (Figures 5–9), the simulation study
// (Figures 10–11), the GPQE ablation (Figure 12), and the specification
// detail sweep (Table 6). cmd/experiments drives it; bench_test.go wraps
// each experiment as a benchmark.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/pbe"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/simulate"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// Config bounds experiment cost. The paper ran 60-second GPU timeouts; this
// CPU implementation is orders of magnitude faster per state, so budgets are
// sub-second (DESIGN.md §3, substitution 4).
type Config struct {
	// Budget is the per-task synthesis wall-clock budget.
	Budget time.Duration
	// MaxCandidates caps ranked lists (100 covers Table 6's Top-100).
	MaxCandidates int
	// SampleEvery runs every k-th task (1 = all tasks).
	SampleEvery int
	// Users is the user-study subject count.
	Users int
	// TSQSeed seeds the synthesized TSQs (§5.4.1: random example tuples).
	TSQSeed int64
}

// DefaultConfig is the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Budget:        400 * time.Millisecond,
		MaxCandidates: 100,
		SampleEvery:   1,
		Users:         16,
		TSQSeed:       20200316, // the paper's arXiv date
	}
}

// QuickConfig is a scaled-down configuration for tests and benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Budget = 200 * time.Millisecond
	cfg.SampleEvery = 25
	cfg.Users = 4
	return cfg
}

// sample returns every k-th task.
func sample(tasks []*dataset.Task, every int) []*dataset.Task {
	if every <= 1 {
		return tasks
	}
	var out []*dataset.Task
	for i := 0; i < len(tasks); i += every {
		out = append(out, tasks[i])
	}
	return out
}

// rankOutcome is one task's ranked-list result.
type rankOutcome struct {
	rank    int           // gold rank (0 = not found)
	elapsed time.Duration // time to gold (0 if not found)
	states  int
}

// runRanked synthesizes one task and reports the gold query's rank. sketch
// may be nil (NLI). Stops as soon as the gold query is emitted or the
// candidate cap is reached.
func runRanked(task *dataset.Task, sketch *tsq.TSQ, mode enumerate.Mode, cfg Config) (rankOutcome, error) {
	v := verify.New(task.DB, semrules.Default(), sketch, task.Literals)
	e := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{
		Mode:          mode,
		MaxCandidates: cfg.MaxCandidates,
		Budget:        cfg.Budget,
	})
	out := rankOutcome{}
	res, err := e.Enumerate(context.Background(), task.NLQ, task.Literals, func(c enumerate.Candidate) bool {
		if sqlir.Equivalent(c.Query, task.Gold) {
			out.rank = c.Rank
			out.elapsed = c.Elapsed
			return false
		}
		return true
	})
	if err != nil {
		return out, fmt.Errorf("task %s: %w", task.ID, err)
	}
	out.states = res.States
	return out, nil
}

// --- Table 5: dataset statistics -------------------------------------------

// Table5Row is one dataset row of Table 5.
type Table5Row struct {
	Experiment string
	Dataset    string
	Databases  int
	Easy       int
	Medium     int
	Hard       int
	Total      int
	AvgTables  float64
	AvgColumns float64
	AvgFKs     float64
}

// Table5 computes the dataset statistics over the MAS and generated
// benchmarks.
func Table5() []Table5Row {
	masTasks, masDB := dataset.MASTasks()
	countMAS := func(ids []string) (e, m, h int) {
		for _, t := range masTasks {
			for _, id := range ids {
				if t.ID == id {
					switch t.Difficulty {
					case dataset.Easy:
						e++
					case dataset.Medium:
						m++
					default:
						h++
					}
				}
			}
		}
		return
	}
	nliIDs := []string{"A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"}
	pbeIDs := []string{"C1", "C2", "C3", "D1", "D2", "D3"}
	e1, m1, h1 := countMAS(nliIDs)
	e2, m2, h2 := countMAS(pbeIDs)

	rows := []Table5Row{
		{
			Experiment: "User Study vs. NLI", Dataset: "MAS", Databases: 1,
			Easy: e1, Medium: m1, Hard: h1, Total: e1 + m1 + h1,
			AvgTables:  float64(len(masDB.Schema.Tables)),
			AvgColumns: float64(masDB.Schema.NumColumns()),
			AvgFKs:     float64(len(masDB.Schema.ForeignKeys)),
		},
		{
			Experiment: "User Study vs. PBE", Dataset: "MAS", Databases: 1,
			Easy: e2, Medium: m2, Hard: h2, Total: e2 + m2 + h2,
			AvgTables:  float64(len(masDB.Schema.Tables)),
			AvgColumns: float64(masDB.Schema.NumColumns()),
			AvgFKs:     float64(len(masDB.Schema.ForeignKeys)),
		},
	}
	for _, bench := range []*dataset.Benchmark{dataset.SpiderDev(), dataset.SpiderTest()} {
		row := Table5Row{Experiment: "Simulation", Dataset: bench.Name, Databases: len(bench.Databases)}
		for _, t := range bench.Tasks {
			switch t.Difficulty {
			case dataset.Easy:
				row.Easy++
			case dataset.Medium:
				row.Medium++
			default:
				row.Hard++
			}
		}
		row.Total = len(bench.Tasks)
		var tbls, cols, fks int
		for _, db := range bench.Databases {
			tbls += len(db.Schema.Tables)
			cols += db.Schema.NumColumns()
			fks += len(db.Schema.ForeignKeys)
		}
		n := float64(len(bench.Databases))
		row.AvgTables = float64(tbls) / n
		row.AvgColumns = float64(cols) / n
		row.AvgFKs = float64(fks) / n
		rows = append(rows, row)
	}
	return rows
}

// RenderTable5 prints the table in the paper's layout.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-12s %4s | %5s %5s %5s %6s | %7s %8s %6s\n",
		"Experiment", "Dataset", "DBs", "Easy", "Med", "Hard", "Total", "Tables", "Columns", "FK-PK")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-12s %4d | %5d %5d %5d %6d | %7.1f %8.1f %6.1f\n",
			r.Experiment, r.Dataset, r.Databases, r.Easy, r.Medium, r.Hard, r.Total,
			r.AvgTables, r.AvgColumns, r.AvgFKs)
	}
	return b.String()
}

// --- Figures 5-9: user studies ----------------------------------------------

// NLIStudy runs the Duoquest-vs-NLI user study (Figures 5 and 6).
func NLIStudy(cfg Config) (*simulate.StudyResult, error) {
	tasks, _ := dataset.NLIStudyTasks()
	r := simulate.NewRunner()
	return r.RunStudy(tasks, [2]simulate.System{simulate.SystemDuoquest, simulate.SystemNLI}, cfg.Users)
}

// PBEStudy runs the Duoquest-vs-PBE user study (Figures 7, 8 and 9).
func PBEStudy(cfg Config) (*simulate.StudyResult, error) {
	tasks, _ := dataset.PBEStudyTasks()
	r := simulate.NewRunner()
	return r.RunStudy(tasks, [2]simulate.System{simulate.SystemDuoquest, simulate.SystemPBE}, cfg.Users)
}

// RenderStudySuccess renders Figure 5/7: % successful trials per task.
func RenderStudySuccess(sr *simulate.StudyResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %% of trials completed successfully within 5 minutes\n", title)
	fmt.Fprintf(&b, "%-6s", "Task")
	for _, sys := range sr.Systems {
		fmt.Fprintf(&b, " %10s", sys)
	}
	b.WriteString("\n")
	for _, task := range sr.Tasks {
		fmt.Fprintf(&b, "%-6s", task)
		for _, sys := range sr.Systems {
			fmt.Fprintf(&b, " %9.1f%%", sr.SuccessPct[task][sys])
		}
		b.WriteString("\n")
	}
	for _, sys := range sr.Systems {
		ok, total := sr.OverallSuccess(sys)
		fmt.Fprintf(&b, "Overall %s: %d/%d (%.1f%%)\n", sys, ok, total, 100*float64(ok)/float64(total))
	}
	return b.String()
}

// RenderStudyTimes renders Figure 6/8: mean successful-trial time per task.
func RenderStudyTimes(sr *simulate.StudyResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — mean time per task for correctly completed trials (s)\n", title)
	fmt.Fprintf(&b, "%-6s", "Task")
	for _, sys := range sr.Systems {
		fmt.Fprintf(&b, " %10s", sys)
	}
	b.WriteString("\n")
	for _, task := range sr.Tasks {
		fmt.Fprintf(&b, "%-6s", task)
		for _, sys := range sr.Systems {
			d := sr.MeanTime[task][sys]
			if d == 0 {
				fmt.Fprintf(&b, " %10s", "-")
			} else {
				fmt.Fprintf(&b, " %10.0f", d.Seconds())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderStudyExamples renders Figure 9: mean example count per task.
func RenderStudyExamples(sr *simulate.StudyResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — mean # examples used per task for successful trials\n", title)
	fmt.Fprintf(&b, "%-6s", "Task")
	for _, sys := range sr.Systems {
		fmt.Fprintf(&b, " %10s", sys)
	}
	b.WriteString("\n")
	for _, task := range sr.Tasks {
		fmt.Fprintf(&b, "%-6s", task)
		for _, sys := range sr.Systems {
			fmt.Fprintf(&b, " %10.1f", sr.MeanExamples[task][sys])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figures 10-11: simulation study ----------------------------------------

// DiffCell is a difficulty bucket of Figure 11.
type DiffCell struct {
	Total      int
	DqTop10    int
	NLITop10   int
	PBECorrect int
	PBEUnsupp  int
}

// SimAccuracy is the Figure 10 + Figure 11 result for one benchmark.
type SimAccuracy struct {
	Dataset  string
	Tasks    int
	DqTop1   int
	DqTop10  int
	NLITop1  int
	NLITop10 int
	PBEOK    int
	PBEUnsup int
	ByDiff   map[dataset.Difficulty]*DiffCell
}

// Simulation runs Duoquest, NLI, and PBE over a benchmark (§5.4.1):
// Duoquest receives NLQ + literals + Full TSQ; NLI receives NLQ + literals;
// PBE receives the TSQ's example tuples.
func Simulation(bench *dataset.Benchmark, cfg Config) (*SimAccuracy, error) {
	tasks := sample(bench.Tasks, cfg.SampleEvery)
	acc := &SimAccuracy{
		Dataset: bench.Name,
		Tasks:   len(tasks),
		ByDiff:  map[dataset.Difficulty]*DiffCell{},
	}
	for _, d := range []dataset.Difficulty{dataset.Easy, dataset.Medium, dataset.Hard} {
		acc.ByDiff[d] = &DiffCell{}
	}
	pbeSystems := map[string]*pbe.System{}
	for i, task := range tasks {
		cell := acc.ByDiff[task.Difficulty]
		cell.Total++
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, cfg.TSQSeed+int64(i))
		if err != nil {
			return nil, err
		}
		dq, err := runRanked(task, sketch, enumerate.ModeGPQE, cfg)
		if err != nil {
			return nil, err
		}
		if dq.rank >= 1 && dq.rank <= 1 {
			acc.DqTop1++
		}
		if dq.rank >= 1 && dq.rank <= 10 {
			acc.DqTop10++
			cell.DqTop10++
		}
		nl, err := runRanked(task, nil, enumerate.ModeGPQE, cfg)
		if err != nil {
			return nil, err
		}
		if nl.rank == 1 {
			acc.NLITop1++
		}
		if nl.rank >= 1 && nl.rank <= 10 {
			acc.NLITop10++
			cell.NLITop10++
		}
		// PBE: supported tasks get the example tuples.
		if ok, _ := pbe.Supports(task.Gold, task.DB.Schema); !ok {
			acc.PBEUnsup++
			cell.PBEUnsupp++
		} else {
			sys := pbeSystems[task.DB.Name]
			if sys == nil {
				sys = pbe.New(task.DB, pbe.DefaultOptions())
				pbeSystems[task.DB.Name] = sys
			}
			out, err := sys.Synthesize(sketch.Tuples)
			if err != nil {
				return nil, err
			}
			if out.Unsupported {
				acc.PBEUnsup++
				cell.PBEUnsupp++
			} else if out.Correct(task.Gold) {
				acc.PBEOK++
				cell.PBECorrect++
			}
		}
	}
	return acc, nil
}

// RenderFigure10 prints the top-1/top-10 accuracy table (Figure 10).
func RenderFigure10(acc *SimAccuracy) string {
	var b strings.Builder
	pct := func(n int) float64 { return 100 * float64(n) / float64(acc.Tasks) }
	fmt.Fprintf(&b, "%s (%d tasks)\n", acc.Dataset, acc.Tasks)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n", "Sys", "Top-1", "Top-10", "Correct", "Unsupp.")
	fmt.Fprintf(&b, "%-6s %5d %5.1f%% %5d %5.1f%% %12s %12s\n", "Dq",
		acc.DqTop1, pct(acc.DqTop1), acc.DqTop10, pct(acc.DqTop10), "-", "0  0.0%")
	fmt.Fprintf(&b, "%-6s %5d %5.1f%% %5d %5.1f%% %12s %12s\n", "NLI",
		acc.NLITop1, pct(acc.NLITop1), acc.NLITop10, pct(acc.NLITop10), "-", "0  0.0%")
	fmt.Fprintf(&b, "%-6s %12s %12s %5d %5.1f%% %5d %5.1f%%\n", "PBE",
		"-", "-", acc.PBEOK, pct(acc.PBEOK), acc.PBEUnsup, pct(acc.PBEUnsup))
	return b.String()
}

// RenderFigure11 prints the difficulty breakdown (Figure 11).
func RenderFigure11(acc *SimAccuracy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s by difficulty (✓# / ✓%% / U#)\n", acc.Dataset)
	fmt.Fprintf(&b, "%-6s", "Sys")
	for _, d := range []dataset.Difficulty{dataset.Easy, dataset.Medium, dataset.Hard} {
		fmt.Fprintf(&b, " | %-22s", fmt.Sprintf("%s (%d)", d, acc.ByDiff[d].Total))
	}
	b.WriteString("\n")
	row := func(name string, get func(*DiffCell) (int, int)) {
		fmt.Fprintf(&b, "%-6s", name)
		for _, d := range []dataset.Difficulty{dataset.Easy, dataset.Medium, dataset.Hard} {
			cell := acc.ByDiff[d]
			okN, unN := get(cell)
			p := 0.0
			if cell.Total > 0 {
				p = 100 * float64(okN) / float64(cell.Total)
			}
			fmt.Fprintf(&b, " | %5d %5.1f%% U:%-5d", okN, p, unN)
		}
		b.WriteString("\n")
	}
	row("Dq", func(c *DiffCell) (int, int) { return c.DqTop10, 0 })
	row("NLI", func(c *DiffCell) (int, int) { return c.NLITop10, 0 })
	row("PBE", func(c *DiffCell) (int, int) { return c.PBECorrect, c.PBEUnsupp })
	return b.String()
}

// --- Figure 12: GPQE ablation -----------------------------------------------

// AblationCurve is one algorithm's time-to-correct-query distribution.
type AblationCurve struct {
	Mode  enumerate.Mode
	Times []time.Duration // per found task; unfound tasks are absent
	Total int
}

// Ablation compares GPQE with NoPQ and NoGuide (Figure 12): the time each
// algorithm needs to synthesize the correct query, as a distribution over
// tasks.
func Ablation(bench *dataset.Benchmark, cfg Config) ([]AblationCurve, error) {
	tasks := sample(bench.Tasks, cfg.SampleEvery)
	modes := []enumerate.Mode{enumerate.ModeGPQE, enumerate.ModeNoPQ, enumerate.ModeNoGuide}
	curves := make([]AblationCurve, len(modes))
	for mi, mode := range modes {
		curves[mi] = AblationCurve{Mode: mode, Total: len(tasks)}
		for i, task := range tasks {
			sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, cfg.TSQSeed+int64(i))
			if err != nil {
				return nil, err
			}
			out, err := runRanked(task, sketch, mode, cfg)
			if err != nil {
				return nil, err
			}
			if out.rank > 0 {
				curves[mi].Times = append(curves[mi].Times, out.elapsed)
			}
		}
	}
	return curves, nil
}

// CompletedWithin returns the percentage of tasks solved within d.
func (c *AblationCurve) CompletedWithin(d time.Duration) float64 {
	n := 0
	for _, t := range c.Times {
		if t <= d {
			n++
		}
	}
	return 100 * float64(n) / float64(c.Total)
}

// RenderFigure12 prints the CDF at log-spaced time buckets.
func RenderFigure12(curves []AblationCurve, budget time.Duration) string {
	buckets := []time.Duration{
		budget / 100, budget / 50, budget / 20, budget / 10,
		budget / 5, budget / 2, budget,
	}
	var b strings.Builder
	b.WriteString("% tasks completed within time budget (CDF)\n")
	fmt.Fprintf(&b, "%-10s", "Time")
	for _, c := range curves {
		fmt.Fprintf(&b, " %10s", c.Mode)
	}
	b.WriteString("\n")
	for _, d := range buckets {
		fmt.Fprintf(&b, "%-10s", d.Round(time.Millisecond))
		for _, c := range curves {
			fmt.Fprintf(&b, " %9.1f%%", c.CompletedWithin(d))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table 6: specification detail -------------------------------------------

// DetailRow is one row of Table 6.
type DetailRow struct {
	Level  string
	Top1   float64
	Top10  float64
	Top100 float64
}

// SpecificationDetail sweeps TSQ detail levels (Table 6): Full, Partial,
// Minimal, plus the NLI baseline with no TSQ at all.
func SpecificationDetail(bench *dataset.Benchmark, cfg Config) ([]DetailRow, error) {
	tasks := sample(bench.Tasks, cfg.SampleEvery)
	type counts struct{ t1, t10, t100 int }
	levels := []struct {
		name   string
		sketch func(task *dataset.Task, seed int64) (*tsq.TSQ, error)
	}{
		{"Full", func(t *dataset.Task, s int64) (*tsq.TSQ, error) {
			return dataset.SynthesizeTSQ(t, dataset.DetailFull, s)
		}},
		{"Partial", func(t *dataset.Task, s int64) (*tsq.TSQ, error) {
			return dataset.SynthesizeTSQ(t, dataset.DetailPartial, s)
		}},
		{"Minimal", func(t *dataset.Task, s int64) (*tsq.TSQ, error) {
			return dataset.SynthesizeTSQ(t, dataset.DetailMinimal, s)
		}},
		{"NLI", func(t *dataset.Task, s int64) (*tsq.TSQ, error) { return nil, nil }},
	}
	var rows []DetailRow
	for _, lv := range levels {
		c := counts{}
		for i, task := range tasks {
			sketch, err := lv.sketch(task, cfg.TSQSeed+int64(i))
			if err != nil {
				return nil, err
			}
			out, err := runRanked(task, sketch, enumerate.ModeGPQE, cfg)
			if err != nil {
				return nil, err
			}
			if out.rank == 1 {
				c.t1++
			}
			if out.rank >= 1 && out.rank <= 10 {
				c.t10++
			}
			if out.rank >= 1 && out.rank <= 100 {
				c.t100++
			}
		}
		n := float64(len(tasks))
		rows = append(rows, DetailRow{
			Level:  lv.name,
			Top1:   100 * float64(c.t1) / n,
			Top10:  100 * float64(c.t10) / n,
			Top100: 100 * float64(c.t100) / n,
		})
	}
	return rows, nil
}

// RenderTable6 prints the detail sweep.
func RenderTable6(name string, rows []DetailRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — exact matching accuracy (%%) by TSQ detail\n", name)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s\n", "Detail", "T1", "T10", "T100")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8.1f %8.1f %8.1f\n", r.Level, r.Top1, r.Top10, r.Top100)
	}
	return b.String()
}

// --- Tables 7/8: task listings -----------------------------------------------

// RenderTaskList prints the user-study task definitions.
func RenderTaskList() string {
	tasks, _ := dataset.MASTasks()
	var b strings.Builder
	b.WriteString("User-study tasks (Appendix A, literals re-scaled to the synthetic MAS)\n\n")
	for _, t := range tasks {
		fmt.Fprintf(&b, "%-3s [%-6s] %s\n    %s\n", t.ID, t.Difficulty, t.NLQ, t.SQL)
	}
	return b.String()
}

// --- Verification-stage ablation (design-choice validation, DESIGN.md §4) ---

// StageReport aggregates verifier work over a task sample, validating the
// ascending-cost ordering claim of §3.4: most rejections happen in the
// cheap, database-free stages.
type StageReport struct {
	Tasks     int
	Checked   int
	DBQueries int
	CacheHits int
	Rejected  map[verify.Stage]int

	// Streaming-executor counters: how much of the verification-query work
	// the pushdown pipeline served.
	StreamedExists int
	IndexHits      int
}

// VerificationStages runs GPQE over a sample and aggregates per-stage
// verifier statistics.
func VerificationStages(bench *dataset.Benchmark, cfg Config) (*StageReport, error) {
	tasks := sample(bench.Tasks, cfg.SampleEvery)
	rep := &StageReport{Tasks: len(tasks), Rejected: map[verify.Stage]int{}}
	for i, task := range tasks {
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, cfg.TSQSeed+int64(i))
		if err != nil {
			return nil, err
		}
		v := verify.New(task.DB, semrules.Default(), sketch, task.Literals)
		e := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{
			Mode:          enumerate.ModeGPQE,
			MaxCandidates: 10,
			Budget:        cfg.Budget,
		})
		if _, err := e.Enumerate(context.Background(), task.NLQ, task.Literals, nil); err != nil {
			return nil, err
		}
		st := v.Stats()
		rep.Checked += st.Checked
		rep.DBQueries += st.DBQueries
		rep.CacheHits += st.ColumnCache
		rep.StreamedExists += st.StreamedExists
		rep.IndexHits += st.IndexHits
		for k, n := range st.Rejected {
			rep.Rejected[k] += n
		}
	}
	return rep, nil
}

// RenderStageReport prints the stage distribution.
func RenderStageReport(rep *StageReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Verification over %d tasks: %d checks, %d DB queries, %d column-cache hits\n",
		rep.Tasks, rep.Checked, rep.DBQueries, rep.CacheHits)
	fmt.Fprintf(&b, "Streaming executor: %d streamed probes, %d index hits\n",
		rep.StreamedExists, rep.IndexHits)
	total := 0
	for _, n := range rep.Rejected {
		total += n
	}
	fmt.Fprintf(&b, "Rejections by stage (of %d):\n", total)
	for _, kv := range sortedStages(rep.Rejected) {
		fmt.Fprintf(&b, "  %s\n", kv)
	}
	return b.String()
}

// sortedStages is a helper for rendering verifier stats deterministically.
func sortedStages(m map[verify.Stage]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[verify.Stage(k)]))
	}
	return out
}
