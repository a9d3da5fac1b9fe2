// Package nli implements the NLI baseline of the evaluation (§5.1.1): a
// SyntaxSQLNet-style natural-language-only system. As in the paper's
// adaptation, it is the same guided enumerator Duoquest uses, decoded purely
// by confidence — no TSQ is available, so no sketch-based pruning or
// soundness guarantee applies. The semantic rules and literal-usage check
// still hold (the NLI is given the NLQ and its tagged literals, §5.4.1).
package nli

import (
	"context"

	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/verify"
)

// System is the NLQ-only baseline bound to one database.
type System struct {
	db    *storage.Database
	model guidance.Model
	rules *semrules.RuleSet
}

// New builds the baseline with the default lexical model and Table 4 rules.
func New(db *storage.Database) *System {
	return &System{db: db, model: guidance.NewLexicalModel(), rules: semrules.Default()}
}

// NewWithModel overrides the guidance model.
func NewWithModel(db *storage.Database, m guidance.Model) *System {
	return &System{db: db, model: m, rules: semrules.Default()}
}

// Options bounds one run: by candidates emitted and by states explored
// (0 = the enumerator's defaults).
type Options struct {
	MaxCandidates int
	MaxStates     int
}

// Synthesize returns the ranked candidate list for an NLQ.
func (s *System) Synthesize(ctx context.Context, nlq string, literals []sqlir.Value, opts Options, emit func(enumerate.Candidate) bool) (*enumerate.Result, error) {
	v := verify.New(s.db, s.rules, nil, literals)
	e := enumerate.New(s.db, s.model, v, enumerate.Options{
		Mode:          enumerate.ModeGPQE,
		MaxCandidates: opts.MaxCandidates,
		MaxStates:     opts.MaxStates,
	})
	return e.Enumerate(ctx, nlq, literals, emit)
}
