// layers.go is the benchmark's only contact with the engine: every import
// of an internal/... package lives in this file, so a PR that renames,
// merges or deletes a layer edits one file of the benchmark or none.
//
// Symbols used, by layer (nothing ROADMAP items 2 and 5 intend to delete —
// no service.Options, no WithX wrappers, no ExistsRowStream/ExistsStreaming/
// ExistsMorsel*, no Table.Rows, no legacy HTTP routes):
//
//	service    Config, NewEngine, Engine{Register, Session, Append, Stats},
//	           Session{Synthesize, SynthesizeStream, Preview}, Input
//	enumerate  New, Options, Enumerator{Enumerate, VerifierStats}, Candidate, Result
//	guidance   Model, NewLexicalModel, Context, Scored, KeywordSet, AggCol, DirLimit
//	semrules   Default, Empty, Rule, RuleSet{Append, Check}, Violation
//	verify     NewCache, NewWithCache, Cache{Joins}, Verifier{VerifyCtx}, Stats, Stage*
//	sqlexec    JoinCache{ExistsCtx, ExecuteCtx, Stats, Size}, ExistsQuery, PipelineStats, Result
//	storage    Database{Snapshot, Append, Epoch, Footprint, Schema}, Table{NumRows,
//	           Columns, Vector}, ColumnVec{IsNull, Num, Code, Dict}, ColumnData
//	segment    NewStore, Store{PersistAs, Load}, LoadInfo
//	dataset    SpiderDev, Task, SynthesizeTSQ, DetailFull
//	loadgen    Preset, Spec, Generate, Generated{Tasks, Probes, DB}
//	sqlir      Query{Canonical, Complete}, Value, ColumnRef, AggFunc, Op, LogicalOp, TypeNumber
//	tsq        TSQ{Satisfies}
package main

import (
	"context"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/loadgen"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/storage/segment"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

type (
	engine      = service.Engine
	session     = service.Session
	input       = service.Input
	database    = storage.Database
	table       = storage.Table
	columnData  = storage.ColumnData
	task        = dataset.Task
	generated   = loadgen.Generated
	query       = sqlir.Query
	sketch      = tsq.TSQ
	candidate   = enumerate.Candidate
	result      = enumerate.Result
	verifyCache = verify.Cache
	verifier    = verify.Verifier
	verifyStats = verify.Stats
	pipeline    = sqlexec.PipelineStats
	existsQuery = sqlexec.ExistsQuery
	segStore    = segment.Store
	ruleSet     = semrules.RuleSet
)

// verifyStages are the cascade's stages in ascending cost order; the
// verify.rejected.<stage>_per_req metric names are built from them.
var verifyStages = []verify.Stage{
	verify.StageClauses, verify.StageSemantics, verify.StageColumnTypes,
	verify.StageByColumn, verify.StageByRow, verify.StageLiterals, verify.StageByOrder,
}

// newEngine builds the engine exactly as cmd/duoquest-server does, plus the
// state cap: Budget stays 0 so termination never depends on the clock, and
// every field the caller leaves zero keeps the server default (verification
// pool, reorder buffer and morsel runner in the measured path).
func newEngine(maxCandidates, workers, queryParallelism int) *engine {
	return service.NewEngine(service.Config{
		MaxStates:        maxStates,
		MaxCandidates:    maxCandidates,
		Workers:          workers,
		QueryParallelism: queryParallelism,
	})
}

func spiderDev() ([]*database, []*task) {
	b := dataset.SpiderDev()
	return b.Databases, b.Tasks
}

// generateScale builds the medium preset's six-table schema at rows rows.
func generateScale(rows int, seed int64) (*generated, error) {
	spec, _ := loadgen.Preset("medium")
	spec.Rows = rows
	return loadgen.Generate(spec, seed)
}

func fullTSQ(t *task, seed int64) (*sketch, error) {
	return dataset.SynthesizeTSQ(t, dataset.DetailFull, seed)
}

func newSegmentStore(dir string) (*segStore, error) { return segment.NewStore(dir) }

func newVerifyCache(db *database) *verifyCache { return verify.NewCache(db) }

// ingestBatch builds one Append payload of n rows by cycling the rows of a
// frozen table from offset base: schema-exact, and existing strings
// re-intern to existing dictionary codes.
func ingestBatch(tb *table, base, n int) []columnData {
	rows := tb.NumRows()
	cols := make([]columnData, len(tb.Columns))
	for ci, c := range tb.Columns {
		vec := tb.Vector(c.Name)
		numeric := c.Type == sqlir.TypeNumber
		var cd columnData
		if numeric {
			cd.Nums = make([]float64, n)
		} else {
			cd.Texts = make([]string, n)
		}
		for j := 0; j < n; j++ {
			ri := (base + j) % rows
			switch {
			case vec.IsNull(ri):
				if cd.Nulls == nil {
					cd.Nulls = make([]bool, n)
				}
				cd.Nulls[j] = true
			case numeric:
				cd.Nums[j] = vec.Num(ri)
			default:
				cd.Texts[j] = vec.Dict().String(vec.Code(ri))
			}
		}
		cols[ci] = cd
	}
	return cols
}

// footprintMB sums the columnar footprint of a database.
func footprintMB(db *database) (vectorMB, dictMB float64) {
	for _, tf := range db.Footprint() {
		vectorMB += float64(tf.VectorBytes) / 1e6
		dictMB += float64(tf.DictBytes) / 1e6
	}
	return vectorMB, dictMB
}

// composed is what Session.SynthesizeStream does between admission and
// accounting, spelled out from the layers' public functions so the traced
// pass can put a span around each one. With a nil tracer and undecorated
// model and rules it is the untraced control.
type composed struct {
	db            *database // live head
	model         guidance.Model
	rules         *ruleSet
	maxCandidates int
	tr            *tracer
	head          *headCache
}

// headCache is the benchmark-owned verification cache of one database's
// head epoch, shared by the warm-up, control and traced passes.
type headCache struct {
	snap  *database // the frozen epoch cache was built for
	cache *verifyCache
}

// newComposed builds the pipeline over db. With a tracer, guidance and
// semrules are wrapped in decorators that record spans and counts.
func newComposed(db *database, maxCandidates int, head *headCache, tr *tracer, counts *layerCounts) *composed {
	c := &composed{db: db, model: guidance.NewLexicalModel(), rules: semrules.Default(), maxCandidates: maxCandidates, tr: tr, head: head}
	if tr != nil {
		c.model = &tracedModel{inner: c.model, tr: tr, counts: counts}
		def := c.rules
		c.rules = semrules.Empty()
		c.rules.Append(semrules.Rule{Name: "traced default rules", Check: func(q *sqlir.Query, schema *storage.Schema) *semrules.Violation {
			id := tr.begin("semrules.check")
			v := def.Check(q, schema)
			tr.end(id)
			counts.semChecks++
			if v != nil {
				counts.semRejects++
			}
			return v
		}})
	}
	return c
}

// layerCounts are the counts taken at the decorated boundaries.
type layerCounts struct {
	guidanceCalls int
	semChecks     int
	semRejects    int
	// expanded holds, for the current request, each partial query guidance
	// was asked to expand — the verify replay's input.
	expanded []*query
}

// request runs one synthesis and returns the enumerator's result plus the
// request's verifier counters.
func (c *composed) request(ctx context.Context, in input) (*result, verifyStats, error) {
	root := c.tr.begin("service.request")
	s := c.tr.begin("storage.snapshot")
	snap := c.db.Snapshot()
	c.tr.end(s)
	if snap != c.head.snap {
		c.head.snap, c.head.cache = snap, verify.NewCache(snap)
	}
	s = c.tr.begin("verify.new")
	v := verify.NewWithCache(snap, c.rules, in.Sketch, in.Literals, c.head.cache)
	c.tr.end(s)
	s = c.tr.begin("enumerate.search")
	en := enumerate.New(snap, c.model, v, enumerate.Options{
		MaxCandidates: c.maxCandidates,
		MaxStates:     maxStates,
		Workers:       1,
	})
	res, err := en.Enumerate(ctx, in.NLQ, in.Literals, nil)
	c.tr.end(s)
	c.tr.end(root)
	if err != nil {
		return nil, verifyStats{}, err
	}
	return res, en.VerifierStats(), nil
}

// newVerifier builds a verifier for replaying logged queries against cache.
func newVerifier(snap *database, in input, cache *verifyCache) *verifier {
	return verify.NewWithCache(snap, semrules.Default(), in.Sketch, in.Literals, cache)
}

// tracedModel puts a guidance.score span around every module call of the
// wrapped model and logs the partial query each call expands.
type tracedModel struct {
	inner  guidance.Model
	tr     *tracer
	counts *layerCounts
}

func scored[T any](m *tracedModel, ctx *guidance.Context, call func() []guidance.Scored[T]) []guidance.Scored[T] {
	m.counts.guidanceCalls++
	if n := len(m.counts.expanded); n == 0 || m.counts.expanded[n-1] != ctx.Query {
		m.counts.expanded = append(m.counts.expanded, ctx.Query)
	}
	id := m.tr.begin("guidance.score")
	out := call()
	m.tr.end(id)
	return out
}

func (m *tracedModel) Keywords(ctx *guidance.Context) []guidance.Scored[guidance.KeywordSet] {
	return scored(m, ctx, func() []guidance.Scored[guidance.KeywordSet] { return m.inner.Keywords(ctx) })
}
func (m *tracedModel) SelectCount(ctx *guidance.Context) []guidance.Scored[int] {
	return scored(m, ctx, func() []guidance.Scored[int] { return m.inner.SelectCount(ctx) })
}
func (m *tracedModel) SelectColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.ColumnRef] { return m.inner.SelectColumn(ctx, idx) })
}
func (m *tracedModel) SelectAgg(ctx *guidance.Context, idx int, col sqlir.ColumnRef) []guidance.Scored[sqlir.AggFunc] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.AggFunc] { return m.inner.SelectAgg(ctx, idx, col) })
}
func (m *tracedModel) WhereCount(ctx *guidance.Context) []guidance.Scored[int] {
	return scored(m, ctx, func() []guidance.Scored[int] { return m.inner.WhereCount(ctx) })
}
func (m *tracedModel) WhereConj(ctx *guidance.Context) []guidance.Scored[sqlir.LogicalOp] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.LogicalOp] { return m.inner.WhereConj(ctx) })
}
func (m *tracedModel) WhereColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.ColumnRef] { return m.inner.WhereColumn(ctx, idx) })
}
func (m *tracedModel) WhereOp(ctx *guidance.Context, col sqlir.ColumnRef) []guidance.Scored[sqlir.Op] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.Op] { return m.inner.WhereOp(ctx, col) })
}
func (m *tracedModel) WhereValue(ctx *guidance.Context, col sqlir.ColumnRef, op sqlir.Op) []guidance.Scored[sqlir.Value] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.Value] { return m.inner.WhereValue(ctx, col, op) })
}
func (m *tracedModel) HavingPresent(ctx *guidance.Context) []guidance.Scored[bool] {
	return scored(m, ctx, func() []guidance.Scored[bool] { return m.inner.HavingPresent(ctx) })
}
func (m *tracedModel) HavingAggCol(ctx *guidance.Context) []guidance.Scored[guidance.AggCol] {
	return scored(m, ctx, func() []guidance.Scored[guidance.AggCol] { return m.inner.HavingAggCol(ctx) })
}
func (m *tracedModel) HavingOp(ctx *guidance.Context) []guidance.Scored[sqlir.Op] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.Op] { return m.inner.HavingOp(ctx) })
}
func (m *tracedModel) HavingValue(ctx *guidance.Context) []guidance.Scored[sqlir.Value] {
	return scored(m, ctx, func() []guidance.Scored[sqlir.Value] { return m.inner.HavingValue(ctx) })
}
func (m *tracedModel) OrderKey(ctx *guidance.Context) []guidance.Scored[guidance.AggCol] {
	return scored(m, ctx, func() []guidance.Scored[guidance.AggCol] { return m.inner.OrderKey(ctx) })
}
func (m *tracedModel) OrderDir(ctx *guidance.Context) []guidance.Scored[guidance.DirLimit] {
	return scored(m, ctx, func() []guidance.Scored[guidance.DirLimit] { return m.inner.OrderDir(ctx) })
}
