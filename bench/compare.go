package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded beside every outcome so a recording made on a
// small box cannot be read as a scaling result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// record is one line of an -out file.
type record struct {
	outcome
	Env environment `json:"env"`
}

func appendOutcome(path string, o *outcome) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{*o, currentEnvironment()})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// comparison is one row of -compare: one end-to-end metric on one workload.
type comparison struct {
	workload, metric   string
	a, b               float64 // medians
	spreadA, spreadB   float64 // quartile distance / median
	worse              float64 // how much b is worse than a, as a share of a (negative: better)
	bound              float64
	verdict            string // ok | regressed | improved | unresolved
	samplesA, samplesB int
}

// compareSets compares the end-to-end metrics of two sets of untraced runs
// against the benchmark's own bounds. A metric whose run-to-run spread in
// either set exceeds its bound is unresolved, not unchanged.
func compareSets(a, b []record) []comparison {
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := comparison{workload: w.Name, metric: d.Name, bound: d.Bound,
				a: median(va), b: median(vb), spreadA: quartileSpread(va), spreadB: quartileSpread(vb),
				samplesA: len(va), samplesB: len(vb)}
			c.worse = ratio(c.b-c.a, c.a)
			if d.Better == "higher" {
				c.worse = -c.worse
			}
			switch {
			case c.spreadA > d.Bound || c.spreadB > d.Bound:
				c.verdict = "unresolved"
			case c.worse > d.Bound:
				c.verdict = "regressed"
			case c.worse < -d.Bound:
				c.verdict = "improved"
			default:
				c.verdict = "ok"
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func describe(recs []record) string {
	seen := map[string]bool{}
	var parts []string
	for _, r := range recs {
		s := fmt.Sprintf("commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d", r.Env.Commit, r.Env.GoVersion, r.Env.NProc, r.Env.GOMAXPROCS, r.Seed)
		if !seen[s] {
			seen[s] = true
			parts = append(parts, s)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%s)\nb: %s (%s)\n", pathA, describe(a), pathB, describe(b))
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "b worse", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, c := range compareSets(a, b) {
		fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
			c.workload, c.metric, c.a, c.b, 100*c.worse, 100*c.spreadA, 100*c.spreadB, 100*c.bound, c.verdict, c.samplesA, c.samplesB)
		if c.verdict == "regressed" {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", bad)
	}
	return nil
}

// printManifest writes BENCHMARK.json from the workload and metric tables.
func printManifest(w io.Writer) error {
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]perLayerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = perLayerDef{d.Name, d.Unit, d.Better}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workload    `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{[]string{"sh", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers})
}
