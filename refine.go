package duoquest

import (
	"context"
	"fmt"
)

// Session supports the paper's iterative interaction model (Figure 1): the
// user issues an NLQ with an optional sketch, inspects the candidates, and
// either rephrases the NLQ or refines the TSQ with more information until
// the desired query appears. §7 lists streamlining this loop as future
// work; Session implements the refinement primitives it describes — adding
// positive examples directly from a candidate's preview, and rejecting
// candidates as negative feedback.
type Session struct {
	syn   *Synthesizer
	input Input
	last  *Result
	// rejected holds canonical forms of user-rejected candidates, filtered
	// from future result lists.
	rejected map[string]bool
}

// NewSession starts an iterative synthesis session.
func (s *Synthesizer) NewSession(input Input) *Session {
	if input.Sketch == nil {
		input.Sketch = &TSQ{}
	}
	return &Session{syn: s, input: input, rejected: map[string]bool{}}
}

// Input returns the session's current dual specification.
func (s *Session) Input() Input { return s.input }

// Run synthesizes with the current specification, filtering out candidates
// the user has rejected.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	res, err := s.syn.Synthesize(ctx, s.input)
	if err != nil {
		return nil, err
	}
	if len(s.rejected) > 0 {
		kept := res.Candidates[:0]
		rank := 0
		for _, c := range res.Candidates {
			if s.rejected[c.Query.Canonical()] {
				continue
			}
			rank++
			c.Rank = rank
			kept = append(kept, c)
		}
		res.Candidates = kept
	}
	s.last = res
	return res, nil
}

// Rephrase replaces the NLQ (and its tagged literals), keeping the sketch.
func (s *Session) Rephrase(nlq string, literals []Value) {
	s.input.NLQ = nlq
	s.input.Literals = literals
}

// AddTuple refines the sketch with another example tuple.
func (s *Session) AddTuple(t Tuple) error {
	sk := *s.input.Sketch
	sk.Tuples = append(append([]Tuple{}, sk.Tuples...), t)
	if err := sk.Validate(); err != nil {
		return err
	}
	s.input.Sketch = &sk
	return nil
}

// SetTypes sets or replaces the sketch's column type annotations.
func (s *Session) SetTypes(types ...Type) error {
	sk := *s.input.Sketch
	sk.Types = types
	if err := sk.Validate(); err != nil {
		return err
	}
	s.input.Sketch = &sk
	return nil
}

// SetSorted sets the sketch's sorted flag.
func (s *Session) SetSorted(sorted bool) {
	sk := *s.input.Sketch
	sk.Sorted = sorted
	s.input.Sketch = &sk
}

// AcceptFromPreview adds a row of a candidate's preview as a positive
// example tuple — the §7 "add examples by clicking directly on a candidate
// query preview" improvement.
func (s *Session) AcceptFromPreview(ctx context.Context, rank int, row int) error {
	if s.last == nil {
		return fmt.Errorf("duoquest: no results to accept from; call Run first")
	}
	for _, c := range s.last.Candidates {
		if c.Rank != rank {
			continue
		}
		preview, err := s.syn.Preview(ctx, c.Query, row+1)
		if err != nil {
			return err
		}
		if row >= len(preview.Rows) {
			return fmt.Errorf("duoquest: candidate %d has only %d preview rows", rank, len(preview.Rows))
		}
		var t Tuple
		for _, v := range preview.Rows[row] {
			if v.IsNull() {
				t = append(t, Empty())
			} else {
				t = append(t, Exact(v))
			}
		}
		return s.AddTuple(t)
	}
	return fmt.Errorf("duoquest: no candidate at rank %d", rank)
}

// Reject marks a candidate as wrong; subsequent Run calls filter it out
// (negative feedback, §7).
func (s *Session) Reject(rank int) error {
	if s.last == nil {
		return fmt.Errorf("duoquest: no results to reject from; call Run first")
	}
	for _, c := range s.last.Candidates {
		if c.Rank == rank {
			s.rejected[c.Query.Canonical()] = true
			return nil
		}
	}
	return fmt.Errorf("duoquest: no candidate at rank %d", rank)
}
