package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// span that caused it (-1 for a request's root); spans of one request share
// Request.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer records spans in memory. The traced pass runs one request at a
// time on one goroutine (Workers=1, QueryParallelism=1), so the innermost
// open span is the parent of the next one and no locking is needed. A nil
// tracer records nothing: the untraced control pass runs the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	open    int // innermost open span, -1 for none
	request int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Request: t.request, StartNs: int64(time.Since(t.t0))})
	t.open = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// layerTime is what the spans say about one layer name.
type layerTime struct {
	calls int
	total int64 // sum of span durations
	self  int64 // total minus the time covered by child spans
}

// selfTimes folds spans into per-layer totals and checks the arithmetic the
// trace rests on: every child lies inside its parent, and in every request
// the self times of all spans add up to the root span (children + self =
// parent, telescoped) within 1 %.
func selfTimes(spans []span) (map[string]*layerTime, error) {
	childSum := make([]int64, len(spans))
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Request != p.Request {
			return nil, fmt.Errorf("span %d (%s) is not nested in its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		childSum[s.Parent] += s.dur()
	}
	layers := map[string]*layerTime{}
	rootDur := map[int]int64{}
	selfSum := map[int]int64{}
	for i, s := range spans {
		self := s.dur() - childSum[i]
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s): children cover %d ns of a %d ns span", i, s.Name, childSum[i], s.dur())
		}
		lt := layers[s.Name]
		if lt == nil {
			lt = &layerTime{}
			layers[s.Name] = lt
		}
		lt.calls++
		lt.total += s.dur()
		lt.self += self
		selfSum[s.Request] += self
		if s.Parent < 0 {
			rootDur[s.Request] += s.dur()
		}
	}
	for req, root := range rootDur {
		if diff := selfSum[req] - root; diff*100 > root || -diff*100 > root {
			return nil, fmt.Errorf("request %d: self times sum to %d ns, root span is %d ns", req, selfSum[req], root)
		}
	}
	return layers, nil
}

// writeSpans writes the spans as JSON lines to <dir>/trace-<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
