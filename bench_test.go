// Benchmarks regenerating the paper's tables and figures, one testing.B per
// artefact (DESIGN.md §4 maps each to its experiment). Benchmarks run on
// reduced samples so `go test -bench=.` finishes in minutes; the full runs
// behind EXPERIMENTS.md use cmd/experiments.
package duoquest_test

import (
	"context"
	"testing"
	"time"

	duoquest "github.com/duoquest/duoquest"
	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/experiments"
	"github.com/duoquest/duoquest/internal/simulate"
)

// benchConfig is the reduced configuration shared by benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.SampleEvery = 40
	cfg.Users = 2
	return cfg
}

// BenchmarkTable5DatasetStats regenerates Table 5 (dataset statistics).
func BenchmarkTable5DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5()
		if len(rows) != 4 {
			b.Fatal("table 5 rows")
		}
	}
}

// BenchmarkFigure5UserStudyNLI regenerates Figure 5 (% successful trials,
// Duoquest vs NLI user study) on a reduced user count.
func BenchmarkFigure5UserStudyNLI(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.NLIStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dq, _ := sr.OverallSuccess(simulate.SystemDuoquest)
		nli, _ := sr.OverallSuccess(simulate.SystemNLI)
		if dq < nli {
			b.Fatalf("Duoquest (%d) below NLI (%d)", dq, nli)
		}
	}
}

// BenchmarkFigure6TrialTimeNLI regenerates Figure 6 (mean trial time per
// task in the NLI study); the same trials as Figure 5.
func BenchmarkFigure6TrialTimeNLI(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.NLIStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderStudyTimes(sr, "Figure 6")
	}
}

// BenchmarkFigure7UserStudyPBE regenerates Figure 7 (% successful trials,
// Duoquest vs PBE user study).
func BenchmarkFigure7UserStudyPBE(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.PBEStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderStudySuccess(sr, "Figure 7")
	}
}

// BenchmarkFigure8TrialTimePBE regenerates Figure 8 (mean trial time per
// task in the PBE study).
func BenchmarkFigure8TrialTimePBE(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.PBEStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderStudyTimes(sr, "Figure 8")
	}
}

// BenchmarkFigure9ExampleCounts regenerates Figure 9 (mean # examples per
// task in the PBE study).
func BenchmarkFigure9ExampleCounts(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.PBEStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderStudyExamples(sr, "Figure 9")
	}
}

// BenchmarkFigure10SimulationAccuracy regenerates Figure 10 (top-1/top-10
// accuracy for Duoquest and NLI, correctness for PBE) on a dev sample.
func BenchmarkFigure10SimulationAccuracy(b *testing.B) {
	cfg := benchConfig()
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := experiments.Simulation(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if acc.DqTop10 < acc.NLITop10 {
			b.Fatal("Dq below NLI")
		}
	}
}

// BenchmarkFigure11DifficultyBreakdown regenerates Figure 11 (accuracy by
// difficulty) — the same runs as Figure 10, bucketed.
func BenchmarkFigure11DifficultyBreakdown(b *testing.B) {
	cfg := benchConfig()
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := experiments.Simulation(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.RenderFigure11(acc)
	}
}

// BenchmarkFigure12AblationCDF regenerates Figure 12 (time-to-correct-query
// distributions for GPQE, NoPQ and NoGuide).
func BenchmarkFigure12AblationCDF(b *testing.B) {
	cfg := benchConfig()
	cfg.SampleEvery = 80
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Ablation(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatal("curves")
		}
	}
}

// BenchmarkTable6SpecificationDetail regenerates Table 6 (Full/Partial/
// Minimal TSQ detail sweep plus NLI baseline).
func BenchmarkTable6SpecificationDetail(b *testing.B) {
	cfg := benchConfig()
	cfg.SampleEvery = 80
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SpecificationDetail(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkSynthesizeDualSpec measures one end-to-end dual-specification
// synthesis on the MAS database (engine micro-benchmark).
func BenchmarkSynthesizeDualSpec(b *testing.B) {
	tasks, _ := dataset.MASTasks()
	task := tasks[12] // D2: single-table medium task
	sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := duoquest.DefaultConfig()
	cfg.Budget = 2 * time.Second
	cfg.MaxCandidates = 1
	syn := duoquest.New(task.DB, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syn.Synthesize(context.Background(), duoquest.Input{
			NLQ:      task.NLQ,
			Literals: task.Literals,
			Sketch:   sketch,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// verificationWorkload selects MAS dual-specification tasks whose cost is
// dominated by ascending-cost cascading verification (Full sketches force
// the column-wise, row-wise, and by-order database checks on every explored
// state).
func verificationWorkload(b *testing.B) []struct {
	task   *dataset.Task
	sketch *duoquest.TSQ
} {
	b.Helper()
	tasks, _ := dataset.MASTasks()
	var out []struct {
		task   *dataset.Task
		sketch *duoquest.TSQ
	}
	for _, task := range tasks {
		sketch, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1)
		if err != nil || sketch == nil || len(sketch.Tuples) == 0 {
			continue
		}
		out = append(out, struct {
			task   *dataset.Task
			sketch *duoquest.TSQ
		}{task, sketch})
		if len(out) == 6 {
			break
		}
	}
	if len(out) == 0 {
		b.Fatal("no verification workload tasks")
	}
	return out
}

// runVerificationWorkload synthesizes every workload task once.
func runVerificationWorkload(b *testing.B, workload []struct {
	task   *dataset.Task
	sketch *duoquest.TSQ
}) {
	b.Helper()
	for _, w := range workload {
		cfg := duoquest.DefaultConfig()
		cfg.Budget = time.Minute // states cap terminates first
		cfg.MaxCandidates = 10
		cfg.MaxStates = 10000
		syn := duoquest.New(w.task.DB, cfg)
		_, err := syn.Synthesize(context.Background(), duoquest.Input{
			NLQ:      w.task.NLQ,
			Literals: w.task.Literals,
			Sketch:   w.sketch,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerification times the engine end to end on TSQ-heavy Spider
// tasks: search, guidance and the whole verification cascade on one
// goroutine per request. Verification queries themselves run through the
// streaming executor (DESIGN.md §6); the executor-level benchmarks live in
// internal/sqlexec/bench_test.go.
func BenchmarkVerification(b *testing.B) {
	workload := verificationWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runVerificationWorkload(b, workload)
	}
}

// BenchmarkBenchmarkGeneration measures the Spider-like dev benchmark
// generation (20 databases, 589 tasks).
func BenchmarkBenchmarkGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench := dataset.SpiderDev()
		if len(bench.Tasks) != 589 {
			b.Fatal("task count")
		}
	}
}

// BenchmarkAblationNoisyExamples measures the §7 noisy-example limitation:
// clean vs corrupted TSQ accuracy.
func BenchmarkAblationNoisyExamples(b *testing.B) {
	cfg := benchConfig()
	cfg.SampleEvery = 100
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoisyExamples(bench, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDesignChoices measures the §3.3.3 confidence-definition
// and Table 4 rules-on/off design ablations.
func BenchmarkAblationDesignChoices(b *testing.B) {
	cfg := benchConfig()
	cfg.SampleEvery = 100
	bench := dataset.SpiderDev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DesignAblations(bench, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
