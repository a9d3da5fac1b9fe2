package experiments

import (
	"math/rand"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/tsq"
)

// NoiseReport quantifies the §7 limitation: Duoquest is not yet able to
// deal with noisy (incorrect) examples. We corrupt one cell of one example
// tuple in the Full TSQ and measure how top-10 accuracy degrades. Because
// every candidate must satisfy the sketch, a wrong example soundly-but-
// wrongly prunes the desired query — the failure mode the paper's future
// work (error detection, probabilistic reasoning) targets.
type NoiseReport struct {
	Tasks      int
	CleanTop10 int
	NoisyTop10 int
}

// NoisyExamples runs the clean-vs-corrupted comparison over a benchmark
// sample.
func NoisyExamples(bench *dataset.Benchmark, cfg Config) (*NoiseReport, error) {
	tasks := cfg.sample(bench)
	rep := &NoiseReport{Tasks: len(tasks)}
	for _, st := range tasks {
		clean, err := dataset.SynthesizeTSQ(st.Task, dataset.DetailFull, st.seed)
		if err != nil {
			return nil, err
		}
		out, err := runRanked(st.Task, clean, semrules.Default(), paper, cfg)
		if err != nil {
			return nil, err
		}
		if out.rank >= 1 && out.rank <= 10 {
			rep.CleanTop10++
		}

		noisy := corruptSketch(clean, st.seed)
		out, err = runRanked(st.Task, noisy, semrules.Default(), paper, cfg)
		if err != nil {
			return nil, err
		}
		if out.rank >= 1 && out.rank <= 10 {
			rep.NoisyTop10++
		}
	}
	return rep, nil
}

// corruptSketch flips one cell of the first example tuple to a wrong value:
// text cells get a scrambled string, numeric cells move far outside any
// plausible range.
func corruptSketch(sk *tsq.TSQ, seed int64) *tsq.TSQ {
	r := rand.New(rand.NewSource(seed))
	out := &tsq.TSQ{
		Types:  append([]sqlir.Type{}, sk.Types...),
		Sorted: sk.Sorted,
		Limit:  sk.Limit,
	}
	for _, tp := range sk.Tuples {
		out.Tuples = append(out.Tuples, append(tsq.Tuple{}, tp...))
	}
	if len(out.Tuples) == 0 || len(out.Tuples[0]) == 0 {
		return out
	}
	tp := out.Tuples[0]
	// Pick a non-empty cell to corrupt.
	idxs := r.Perm(len(tp))
	for _, j := range idxs {
		switch tp[j].Kind {
		case tsq.CellExact:
			if tp[j].Val.Kind == sqlir.KindText {
				tp[j] = tsq.Exact(sqlir.NewText("zz-" + tp[j].Val.Text + "-zz"))
			} else {
				tp[j] = tsq.Exact(sqlir.NewNumber(tp[j].Val.Num + 1e9))
			}
			return out
		case tsq.CellRange:
			lo := tp[j].Lo.Num + 1e9
			tp[j] = tsq.Range(lo, lo+1)
			return out
		}
	}
	return out
}
