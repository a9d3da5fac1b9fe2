// Command bench is the repository's benchmark: one seeded, closed-loop
// harness that drives the engine in-process through service.Engine
// sessions, prints every metric by name and unit, checks outputs, and in a
// separate traced pass times each layer from outside. See README.md.
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench --workload spider_dual --seed 1 --seconds 10 --trace 0
//	go run ./bench -out a.json ... ; go run ./bench -compare a.json b.json
//	go run ./bench -manifest                         print BENCHMARK.json
//
// With --workload, the last line of standard output is the result object
// the driver reads: {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 10

// accuracy is a reference-pass outcome.
type accuracy struct{ tasks, top1, topk int }

// recorded is the reference-pass accuracy of a full-size run of each
// workload at the commit that added the benchmark. The inputs that decide
// accuracy are fixed (fixtureSeed), so it holds for every --seed. Accuracy
// below it fails the run: pruning must not start discarding gold queries.
// Accuracy above it is reported and passes — a later change is allowed to
// rank better without editing the benchmark.
var recorded = map[string]accuracy{
	"spider_dual":  {tasks: 197, top1: 170, topk: 193},
	"spider_nlq":   {tasks: 197, top1: 83, topk: 146},
	"scale_warm":   {tasks: 33, top1: 27, topk: 27},
	"scale_ingest": {tasks: 33, top1: 27, topk: 27},
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name     = flag.String("workload", "", "run one workload and end with the driver's result line (default: all of them, untraced then traced)")
		seed     = flag.Int64("seed", 1, "workload seed: request shuffles and the rows the ingest batches carry")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics of the traced pass instead of the end-to-end ones")
		out      = flag.String("out", "", "append each run's outcome to this JSON-lines file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()
	switch {
	case *manifest:
		return printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	r := &run{
		seed:    *seed,
		seconds: *seconds,
		sz:      fullSizes,
		outDir:  filepath.Join("bench", "out"),
		clients: min(2, runtime.NumCPU()),
		logf:    func(format string, args ...any) { fmt.Printf(format, args...) },
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	type pass struct {
		w     workload
		trace bool
	}
	var plan []pass
	if *name == "" {
		for _, w := range workloads {
			plan = append(plan, pass{w, false}, pass{w, true})
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		plan = []pass{{w, *trace == 1}}
	}
	allCorrect := true
	for _, p := range plan {
		r.trace = p.trace
		o, err := r.runWorkload(p.w)
		if err != nil {
			return err
		}
		allCorrect = allCorrect && o.Correct
		if *out != "" {
			if err := appendOutcome(*out, o); err != nil {
				return err
			}
		}
		if *name != "" {
			line, err := json.Marshal(struct {
				Correct   bool                `json:"correct"`
				Attempted int                 `json:"attempted"`
				Failed    int                 `json:"failed"`
				Metrics   map[string]measured `json:"metrics"`
			}{o.Correct, o.Attempted, o.Failed, o.Metrics})
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
		}
	}
	if !allCorrect {
		return fmt.Errorf("a run failed its correctness gate (see FAIL lines)")
	}
	return nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
