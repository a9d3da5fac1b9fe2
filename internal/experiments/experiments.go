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
	"strings"

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

// StateBudget caps the states every synthesis of the evaluation explores.
// It stands in for the paper's 60-second GPU timeouts (DESIGN.md §3,
// substitution 4): a bound in states, not in time, makes every result a
// function of the code alone, the same on any machine.
const StateBudget = 30_000

// Config selects how much of the evaluation runs.
type Config struct {
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
		MaxCandidates: 100,
		SampleEvery:   1,
		Users:         16,
		TSQSeed:       20200316, // the paper's arXiv date
	}
}

// QuickConfig is a scaled-down configuration for tests and benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.SampleEvery = 25
	cfg.Users = 4
	return cfg
}

// sampledTask is a task of a strided run and the seed of its TSQs.
type sampledTask struct {
	*dataset.Task
	seed int64
}

// sample returns every k-th task of a benchmark. A task's TSQ seed follows
// its position in the benchmark, not in the sample, so a task gets the same
// TSQs at every stride and a strided run is a subset of the full run.
func (cfg Config) sample(bench *dataset.Benchmark) []sampledTask {
	every := max(cfg.SampleEvery, 1)
	var out []sampledTask
	for i := 0; i < len(bench.Tasks); i += every {
		out = append(out, sampledTask{bench.Tasks[i], cfg.TSQSeed + int64(i)})
	}
	return out
}

// paper is the search the paper evaluates: GPQE with product confidence.
var paper = enumerate.Options{Mode: enumerate.ModeGPQE}

// rankOutcome is one task's ranked-list result.
type rankOutcome struct {
	rank   int // gold rank (0 = not found)
	states int // states explored: until gold when it was found
}

// runRanked synthesizes one task under a search variant (its Mode and
// GeoMeanPriority) and semantic rules, and reports the gold query's rank.
// sketch may be nil (NLI). The search stops at the gold query, at
// cfg.MaxCandidates candidates or at StateBudget states.
func runRanked(task *dataset.Task, sketch *tsq.TSQ, rules *semrules.RuleSet, variant enumerate.Options, cfg Config) (rankOutcome, error) {
	variant.MaxCandidates = cfg.MaxCandidates
	variant.MaxStates = StateBudget
	v := verify.New(task.DB, rules, sketch, task.Literals)
	e := enumerate.New(task.DB, guidance.NewLexicalModel(), v, variant)
	out := rankOutcome{}
	res, err := e.Enumerate(context.Background(), task.NLQ, task.Literals, func(c enumerate.Candidate) bool {
		if sqlir.Equivalent(c.Query, task.Gold) {
			out.rank = c.Rank
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
	tasks := cfg.sample(bench)
	acc := &SimAccuracy{
		Dataset: bench.Name,
		Tasks:   len(tasks),
		ByDiff:  map[dataset.Difficulty]*DiffCell{},
	}
	for _, d := range []dataset.Difficulty{dataset.Easy, dataset.Medium, dataset.Hard} {
		acc.ByDiff[d] = &DiffCell{}
	}
	pbeSystems := map[string]*pbe.System{}
	for _, st := range tasks {
		task := st.Task
		cell := acc.ByDiff[task.Difficulty]
		cell.Total++
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, st.seed)
		if err != nil {
			return nil, err
		}
		dq, err := runRanked(task, sketch, semrules.Default(), paper, cfg)
		if err != nil {
			return nil, err
		}
		if dq.rank == 1 {
			acc.DqTop1++
		}
		if dq.rank >= 1 && dq.rank <= 10 {
			acc.DqTop10++
			cell.DqTop10++
		}
		nl, err := runRanked(task, nil, semrules.Default(), paper, cfg)
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
		if ok, _ := pbe.Supports(task.Gold); !ok {
			acc.PBEUnsup++
			cell.PBEUnsupp++
		} else {
			sys := pbeSystems[task.DB.Name]
			if sys == nil {
				sys = pbe.New(task.DB)
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

// AblationCurve is one algorithm's distribution of states explored until
// the correct query.
type AblationCurve struct {
	Mode enumerate.Mode
	// States holds, per solved task, the states explored until gold;
	// unsolved tasks are absent.
	States []int
	Total  int
	// Explored counts every state the curve's searches explored, solved
	// or not.
	Explored int
}

// Ablation compares GPQE with NoPQ and NoGuide (Figure 12): the states each
// algorithm explores until it synthesizes the correct query, as a
// distribution over tasks.
func Ablation(bench *dataset.Benchmark, cfg Config) ([]AblationCurve, error) {
	tasks := cfg.sample(bench)
	modes := []enumerate.Mode{enumerate.ModeGPQE, enumerate.ModeNoPQ, enumerate.ModeNoGuide}
	curves := make([]AblationCurve, len(modes))
	for mi, mode := range modes {
		curves[mi] = AblationCurve{Mode: mode, Total: len(tasks)}
		for _, st := range tasks {
			sketch, err := dataset.SynthesizeTSQ(st.Task, dataset.DetailFull, st.seed)
			if err != nil {
				return nil, err
			}
			out, err := runRanked(st.Task, sketch, semrules.Default(), enumerate.Options{Mode: mode}, cfg)
			if err != nil {
				return nil, err
			}
			curves[mi].Explored += out.states
			if out.rank > 0 {
				curves[mi].States = append(curves[mi].States, out.states)
			}
		}
	}
	return curves, nil
}

// SolvedWithin returns the number of tasks solved within n explored states.
func (c *AblationCurve) SolvedWithin(n int) int {
	solved := 0
	for _, s := range c.States {
		if s <= n {
			solved++
		}
	}
	return solved
}

// figure12Buckets are Figure 12's x-axis: states explored until gold, on a
// 1-3-10 scale up to StateBudget.
var figure12Buckets = []int{10, 30, 100, 300, 1_000, 3_000, 10_000, StateBudget}

// RenderFigure12 prints the CDF at figure12Buckets.
func RenderFigure12(curves []AblationCurve) string {
	var b strings.Builder
	b.WriteString("% tasks solved within n explored states (CDF)\n")
	fmt.Fprintf(&b, "%-10s", "States")
	for _, c := range curves {
		fmt.Fprintf(&b, " %10s", c.Mode)
	}
	b.WriteString("\n")
	for _, n := range figure12Buckets {
		fmt.Fprintf(&b, "%-10d", n)
		for _, c := range curves {
			fmt.Fprintf(&b, " %9.1f%%", 100*float64(c.SolvedWithin(n))/float64(c.Total))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table 6: specification detail -------------------------------------------

// DetailRow is one row of Table 6: how many of Tasks put gold at rank 1,
// within the top 10 and within the top 100.
type DetailRow struct {
	Level  string
	Tasks  int
	Top1   int
	Top10  int
	Top100 int
}

// SpecificationDetail sweeps TSQ detail levels (Table 6): Full, Partial,
// Minimal, plus the NLI baseline with no TSQ at all.
func SpecificationDetail(bench *dataset.Benchmark, cfg Config) ([]DetailRow, error) {
	tasks := cfg.sample(bench)
	levels := []struct {
		name   string
		detail dataset.DetailLevel
	}{
		{"Full", dataset.DetailFull},
		{"Partial", dataset.DetailPartial},
		{"Minimal", dataset.DetailMinimal},
		{"NLI", 0},
	}
	var rows []DetailRow
	for _, lv := range levels {
		row := DetailRow{Level: lv.name, Tasks: len(tasks)}
		for _, st := range tasks {
			var sketch *tsq.TSQ // the NLI baseline has none
			if lv.name != "NLI" {
				var err error
				if sketch, err = dataset.SynthesizeTSQ(st.Task, lv.detail, st.seed); err != nil {
					return nil, err
				}
			}
			out, err := runRanked(st.Task, sketch, semrules.Default(), paper, cfg)
			if err != nil {
				return nil, err
			}
			if out.rank == 1 {
				row.Top1++
			}
			if out.rank >= 1 && out.rank <= 10 {
				row.Top10++
			}
			if out.rank >= 1 && out.rank <= 100 {
				row.Top100++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable6 prints the detail sweep.
func RenderTable6(name string, rows []DetailRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — exact matching accuracy (%%) by TSQ detail\n", name)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s\n", "Detail", "T1", "T10", "T100")
	for _, r := range rows {
		pct := func(n int) float64 { return 100 * float64(n) / float64(r.Tasks) }
		fmt.Fprintf(&b, "%-8s %8.1f %8.1f %8.1f\n", r.Level, pct(r.Top1), pct(r.Top10), pct(r.Top100))
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
