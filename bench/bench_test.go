package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// toySizes shrink every workload to well under a second: every 40th Spider
// task, a 2k-row generated database, one timed pass, one set-up.
var toySizes = sizes{spiderStride: 40, scaleRows: 2000, scaleTasks: 6, setups: 1, minReads: 0, traceStride: 2, probes: 20, taxRounds: 1}

// TestToyWorkloads runs all four workloads, untraced and traced, at toy size
// and checks that each run reports exactly the declared metrics, once each,
// under contract-legal names, in a result line that parses.
func TestToyWorkloads(t *testing.T) {
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := &run{seed: 1, seconds: 0, trace: trace, sz: toySizes, outDir: t.TempDir(), clients: 2, logf: t.Logf}
			o, err := r.runWorkload(w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.Name, trace, o.Correct, o.Failed, o.Attempted, o.Failures)
			}
			decl := endToEnd
			if trace {
				decl = perLayer
			}
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Metrics map[string]measured `json:"metrics"`
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.Name, err)
			}
			if len(back.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, trace, len(back.Metrics), len(decl))
			}
			seen := map[string]bool{}
			for _, d := range decl {
				if seen[d.Name] {
					t.Errorf("metric %s is declared twice", d.Name)
				}
				seen[d.Name] = true
				if !legal.MatchString(d.Name) {
					t.Errorf("metric name %q is not contract-legal", d.Name)
				}
				got, ok := back.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing from the result", w.Name, trace, d.Name)
				} else if got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", w.Name, trace, d.Name, got.Value, got.Unit, d.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(r.outDir, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json and the metric tables in step.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var generated bytes.Buffer
	if err := printManifest(&generated); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 199)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := percentile(samples, 0.95); err == nil {
		t.Errorf("p95 of 199 samples has 9 beyond it and must be refused")
	}
	samples = append(samples, 200)
	got, err := percentile(samples, 0.95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	values := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 12.5, 11.5}
	// quantiles → [10.375, 11.75, 13.25]; median 11.75
	if got, want := quartileSpread(values), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "service.request", StartNs: 0, EndNs: 1000, Parent: -1, Request: 0},
		{Name: "enumerate.search", StartNs: 100, EndNs: 900, Parent: 0, Request: 0},
		{Name: "guidance.score", StartNs: 200, EndNs: 300, Parent: 1, Request: 0},
		{Name: "guidance.score", StartNs: 400, EndNs: 450, Parent: 1, Request: 0},
		{Name: "semrules.check", StartNs: 500, EndNs: 520, Parent: 1, Request: 0},
	}
	layers, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := layers["enumerate.search"].self; got != 800-100-50-20 {
		t.Errorf("search self = %d, want 630", got)
	}
	if got := layers["service.request"].self; got != 200 {
		t.Errorf("root self = %d, want 200", got)
	}
	var selfSum int64
	for _, lt := range layers {
		selfSum += lt.self
	}
	if selfSum != 1000 {
		t.Errorf("self times sum to %d, root span is 1000", selfSum)
	}
	if layers["guidance.score"].calls != 2 || layers["guidance.score"].total != 150 {
		t.Errorf("guidance = %+v", layers["guidance.score"])
	}
	// A child that leaves its parent's interval breaks the arithmetic.
	spans[4].EndNs = 950
	if _, err := selfTimes(spans); err == nil {
		t.Errorf("a child ending after its parent must be rejected")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("service.request")
	a := tr.begin("enumerate.search")
	b := tr.begin("guidance.score")
	tr.end(b)
	tr.end(a)
	c := tr.begin("verify.new")
	tr.end(c)
	tr.end(root)
	parents := []int{-1, root, a, root}
	for i, s := range tr.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %d (%s) has parent %d, want %d", i, s.Name, s.Parent, parents[i])
		}
	}
	var none *tracer // the untraced control passes a nil tracer
	none.end(none.begin("x"))
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 ...float64) (recs []record) {
		for _, v := range p50 {
			recs = append(recs, record{outcome: outcome{Workload: "spider_dual", Metrics: map[string]measured{"synth_ms_p50": {Value: v, Unit: "ms"}}}})
		}
		return recs
	}
	verdict := func(a, b []record) string {
		rows := compareSets(a, b)
		if len(rows) != 1 {
			t.Fatalf("got %d rows, want 1", len(rows))
		}
		return rows[0].verdict
	}
	steady := mk(10, 10.1, 9.9, 10, 10.05)
	if got := verdict(steady, mk(10.2, 10.1, 10.3, 10.2, 10.25)); got != "ok" {
		t.Errorf("2%% slower = %s, want ok", got)
	}
	if got := verdict(steady, mk(14, 14.1, 13.9, 14, 14.05)); got != "regressed" {
		t.Errorf("40%% slower = %s, want regressed", got)
	}
	if got := verdict(steady, mk(5, 20, 9, 14, 30)); got != "unresolved" {
		t.Errorf("a set noisier than the bound = %s, want unresolved", got)
	}
}
