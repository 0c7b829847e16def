// Package fulltext is a full-text search library with formally grounded
// query semantics, implementing Botev, Amer-Yahia and Shanmugasundaram,
// "Expressiveness and Performance of Full-Text Search Languages" (EDBT
// 2006).
//
// Queries are written in one of three dialects — BOOL (Boolean keyword
// search), DIST (BOOL plus a distance construct) or COMP (the paper's
// complete language with position variables, quantifiers and position
// predicates) — and are evaluated over inverted lists by the cheapest
// engine that can handle them:
//
//	BOOL   sorted merge of posting lists               (Section 5.3)
//	PPRED  single-scan pipelined cursors               (Section 5.5)
//	NPRED  ordering-permutation threads                (Section 5.6)
//	COMP   materializing relational algebra evaluation (Section 5.4)
//
// Results can be ranked with TF-IDF (Section 3.1) or probabilistic
// relational algebra scoring (Section 3.2).
//
// Beyond the paper, ShardedIndex serves the same queries over
// hash-partitioned shards with parallel fan-out, a WAND top-K fast path,
// and incremental ingestion: Add appends per-shard delta segments without
// rebuilding, Delete tombstones, and a tiered policy merges segments
// lazily on a bounded background worker pool — with results
// byte-identical to a from-scratch rebuild. OpenDurable adds crash
// safety: every mutation is written ahead to a checksummed redo log
// (internal/wal) before it applies, Checkpoint bounds the log with
// atomic snapshots, and recovery replays the tail byte-identically. See
// docs/ARCHITECTURE.md for the system map and docs/QUERY_LANGUAGES.md for
// the dialect reference.
//
// Basic usage:
//
//	b := fulltext.NewBuilder()
//	b.Add("doc1", "an efficient algorithm improves task completion rates")
//	ix := b.Build()
//	q, _ := fulltext.Parse(fulltext.COMP,
//	    `SOME t1 SOME t2 (t1 HAS 'task' AND t2 HAS 'completion'
//	     AND ordered(t1,t2) AND distance(t1,t2,0))`)
//	matches, _ := ix.Search(q)
package fulltext

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fulltext/internal/booleval"
	"fulltext/internal/compeval"
	"fulltext/internal/core"
	"fulltext/internal/fta"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/npred"
	"fulltext/internal/ppred"
	"fulltext/internal/pred"
	"fulltext/internal/score"
	"fulltext/internal/telemetry"
	"fulltext/internal/text"
	"fulltext/internal/wand"
)

// Dialect selects the query grammar (Section 4).
type Dialect int

const (
	// BOOL is Boolean keyword search: tokens, ANY, NOT, AND, OR.
	BOOL Dialect = iota
	// DIST is BOOL plus dist(Token, Token, Integer).
	DIST
	// COMP is the complete language: HAS, SOME, EVERY and position
	// predicates.
	COMP
)

// Class places a query in the expressiveness/cost hierarchy of Figure 3.
type Class int

const (
	// ClassBoolNoNeg is Boolean search without ANY or free-standing NOT.
	ClassBoolNoNeg Class = iota
	// ClassBool is full Boolean search.
	ClassBool
	// ClassPPred is single-scan evaluable (positive predicates).
	ClassPPred
	// ClassNPred adds negative predicates (permutation threads).
	ClassNPred
	// ClassComp requires the complete engine.
	ClassComp
)

// String returns the class name used in Explain output and benchmarks.
func (c Class) String() string { return lang.Class(c).String() }

// Engine selects an evaluation strategy.
type Engine int

const (
	// EngineAuto picks the cheapest engine for the query's class, falling
	// back to the complete engine when a specialized planner rejects the
	// query.
	EngineAuto Engine = iota
	// EngineBOOL forces the merge engine (BOOL-class queries only).
	EngineBOOL
	// EnginePPRED forces the single-scan engine (positive predicates only).
	EnginePPRED
	// EngineNPRED forces the permutation-thread engine.
	EngineNPRED
	// EngineCOMP forces the materializing complete engine.
	EngineCOMP
)

// String returns the engine name used in Explain output and benchmarks.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "AUTO"
	case EngineBOOL:
		return "BOOL"
	case EnginePPRED:
		return "PPRED"
	case EngineNPRED:
		return "NPRED"
	default:
		return "COMP"
	}
}

// ScoringModel selects a ranking model for SearchRanked.
type ScoringModel int

const (
	// TFIDF is the cosine TF-IDF model of Section 3.1.
	TFIDF ScoringModel = iota
	// PRA is the probabilistic relational algebra model of Section 3.2.
	PRA
)

// Match is one search result.
type Match struct {
	ID    string  // document identifier passed to Builder.Add
	Score float64 // ranking score (0 for Boolean search)
}

// String returns the dialect name used in query shapes and stats output.
func (d Dialect) String() string {
	switch d {
	case BOOL:
		return "bool"
	case DIST:
		return "dist"
	case COMP:
		return "comp"
	}
	return "unknown"
}

// Query is a parsed query.
type Query struct {
	ast     lang.Query
	src     string
	dialect Dialect
}

// Parse parses a query string in the given dialect.
func Parse(d Dialect, src string) (*Query, error) {
	var ld lang.Dialect
	switch d {
	case BOOL:
		ld = lang.DialectBOOL
	case DIST:
		ld = lang.DialectDIST
	case COMP:
		ld = lang.DialectCOMP
	default:
		return nil, fmt.Errorf("fulltext: unknown dialect %d", d)
	}
	ast, err := lang.Parse(ld, src)
	if err != nil {
		return nil, err
	}
	return &Query{ast: ast, src: src, dialect: d}, nil
}

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(d Dialect, src string) *Query {
	q, err := Parse(d, src)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the canonical rendering of the parsed query.
func (q *Query) String() string { return q.ast.String() }

// Classify places the query in the Figure 3 hierarchy using the default
// predicate registry.
func Classify(q *Query) Class {
	return Class(lang.Classify(q.ast, pred.Default()))
}

// Builder accumulates documents and produces an immutable Index.
type Builder struct {
	corpus   *core.Corpus
	analyzer *text.Analyzer
}

// NewBuilder returns an empty builder with no linguistic analysis (see
// NewBuilderWith for stemming, stop words and synonyms).
func NewBuilder() *Builder {
	return &Builder{corpus: core.NewCorpus(), analyzer: &text.Analyzer{}}
}

// Add tokenizes text (lowercasing, sentence and paragraph detection),
// applies the builder's analysis options, and adds it as one context node.
// IDs must be unique and non-empty.
func (b *Builder) Add(id, body string) error {
	toks, pos := core.Tokenize(body)
	toks, pos = b.analyzer.Apply(toks, pos)
	_, err := b.corpus.AddTokens(id, toks, pos)
	return err
}

// AddTokens adds a pre-tokenized document with structureless positions,
// applying the builder's analysis options.
func (b *Builder) AddTokens(id string, tokens []string) error {
	toks, pos := b.analyzer.Apply(tokens, core.PositionsForTokens(len(tokens)))
	_, err := b.corpus.AddTokens(id, toks, pos)
	return err
}

// Len returns the number of documents added so far.
func (b *Builder) Len() int { return b.corpus.Len() }

// Build constructs the inverted-list index. The builder remains usable;
// subsequent Adds do not affect the built index.
func (b *Builder) Build() *Index {
	ids := make([]string, b.corpus.Len())
	for i, d := range b.corpus.Docs() {
		ids[i] = d.ID
	}
	return &Index{
		inv:      invlist.Build(b.corpus),
		reg:      pred.Default(),
		ids:      ids,
		analyzer: b.analyzer,
		rc:       &rankedCounters{},
	}
}

// Index is an immutable inverted-list index over a document collection.
type Index struct {
	inv      *invlist.Index
	reg      *pred.Registry
	ids      []string
	analyzer *text.Analyzer
	rc       *rankedCounters
}

// rankedCounters accumulates ranked-evaluation work counters across the
// index's lifetime (atomics: searches run concurrently).
type rankedCounters struct {
	fast       atomic.Uint64
	exhaustive atomic.Uint64
	candidates atomic.Uint64
	scored     atomic.Uint64
	skipped    atomic.Uint64
	tombstoned atomic.Uint64
	seeks      atomic.Uint64
	blockSkips atomic.Uint64
}

func (rc *rankedCounters) addWand(ws wand.Stats) {
	rc.fast.Add(1)
	rc.candidates.Add(ws.Candidates)
	rc.scored.Add(ws.Scored)
	rc.skipped.Add(ws.BoundSkipped)
	rc.tombstoned.Add(ws.Tombstoned)
	rc.seeks.Add(ws.Seeks)
	rc.blockSkips.Add(ws.BlocksSkipped)
}

// addExhaustive counts one exhaustive evaluation: the 1..N scan, which
// scores every node, or the candidate loop of a grounded query.
func (rc *rankedCounters) addExhaustive(ws wand.Stats) {
	rc.exhaustive.Add(1)
	rc.candidates.Add(ws.Candidates)
	rc.scored.Add(ws.Scored)
	rc.tombstoned.Add(ws.Tombstoned)
	rc.seeks.Add(ws.Seeks)
}

// RankedEvalStats is a snapshot of cumulative ranked-evaluation work: how
// often the WAND fast path vs the exhaustive scan ran, and how many
// documents were considered, fully scored, or pruned by the upper-bound
// threshold. The unit is one per-index evaluation — on a ShardedIndex
// every segment of every shard counts separately, so a single sharded
// query increments the query counters once per segment. The exhaustive
// 1..N scan counts every context node as scored — that is exactly the work
// the fast path exists to avoid, so ScoredDocs is the number benchmarks
// compare; an exhaustive evaluation of a grounded query counts only the
// candidates its posting lists name.
type RankedEvalStats struct {
	FastPathQueries   uint64 // per-index fast-path evaluations (segments count individually)
	ExhaustiveQueries uint64 // per-index exhaustive scans (segments count individually)
	CandidateDocs     uint64
	ScoredDocs        uint64
	BoundSkippedDocs  uint64
	// TombstonedDocs counts candidates dropped, before evaluation, because
	// they were deleted documents awaiting compaction — the per-query cost
	// of tombstones between merges.
	TombstonedDocs uint64
	CursorSeeks    uint64
	// BlocksSkipped counts posting-list block boundaries crossed through
	// per-block score bounds (block-max WAND) instead of entry stepping.
	BlocksSkipped uint64
}

// RankedEvalStats returns the index's cumulative ranked-query counters.
func (ix *Index) RankedEvalStats() RankedEvalStats {
	return ix.rc.snapshot()
}

func (rc *rankedCounters) snapshot() RankedEvalStats {
	return RankedEvalStats{
		FastPathQueries:   rc.fast.Load(),
		ExhaustiveQueries: rc.exhaustive.Load(),
		CandidateDocs:     rc.candidates.Load(),
		ScoredDocs:        rc.scored.Load(),
		BoundSkippedDocs:  rc.skipped.Load(),
		TombstonedDocs:    rc.tombstoned.Load(),
		CursorSeeks:       rc.seeks.Load(),
		BlocksSkipped:     rc.blockSkips.Load(),
	}
}

// SetStatsBlockSize overrides the posting-list block granularity used for
// per-block score bounds (0 restores the default). Cached statistics are
// invalidated; the next ranked query rebuilds them at the new granularity.
// Exists for tests and benchmarks — the default suits production.
func (ix *Index) SetStatsBlockSize(n int) { ix.inv.SetBlockSize(n) }

// Stats reports the complexity-model parameters of the index (Section
// 5.1.2).
type Stats struct {
	Docs            int // cnodes
	Tokens          int // distinct tokens
	TotalPositions  int
	PosPerDoc       int // max positions in a document
	EntriesPerToken int // max entries in a token inverted list
	PosPerEntry     int // max positions in an inverted-list entry
}

// Stats returns index statistics.
func (ix *Index) Stats() Stats {
	s := ix.inv.Stats()
	return Stats{
		Docs:            s.CNodes,
		Tokens:          s.Tokens,
		TotalPositions:  s.TotalPositions,
		PosPerDoc:       s.PosPerCNode,
		EntriesPerToken: s.EntriesPerToken,
		PosPerEntry:     s.PosPerEntry,
	}
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return len(ix.ids) }

// Classify places the query in the hierarchy using this index's predicate
// registry (which may contain custom predicates).
func (ix *Index) Classify(q *Query) Class {
	return Class(lang.Classify(ix.rewrite(q), ix.reg))
}

// rewrite maps query tokens through the index's analyzer so queries match
// analyzed index terms.
func (ix *Index) rewrite(q *Query) lang.Query {
	return rewriteQueryTokens(q.ast, ix.analyzer)
}

// RegisterPredicate adds a custom position predicate usable in COMP
// queries. eval receives the token ordinals of the bound positions and the
// integer constants. Custom predicates are general-class: queries using
// them evaluate on the complete engine.
func (ix *Index) RegisterPredicate(name string, posArity, constArity int, eval func(ords []int32, consts []int) bool) error {
	return ix.reg.Register(&pred.Def{
		Name: name, PosArity: posArity, ConstArity: constArity,
		Class: pred.General,
		Eval: func(p []core.Pos, c []int) bool {
			ords := make([]int32, len(p))
			for i := range p {
				ords[i] = p[i].Ord
			}
			return eval(ords, c)
		},
	})
}

// Search evaluates the query with the automatically selected engine.
func (ix *Index) Search(q *Query) ([]Match, error) {
	return ix.SearchWith(q, EngineAuto)
}

// SearchWith evaluates the query with an explicit engine. Forcing an
// engine onto a query outside its class returns an error.
func (ix *Index) SearchWith(q *Query, e Engine) ([]Match, error) {
	ast := ix.rewrite(q)
	if err := lang.Validate(ast, ix.reg); err != nil {
		return nil, err
	}
	norm := lang.Normalize(ast, ix.reg)
	nodes, _, err := ix.dispatch(planUnranked(norm, ix.reg), e, nil)
	if err != nil {
		return nil, err
	}
	return ix.matches(nodes, nil), nil
}

// unranked is the per-query part of an unranked search, shared read-only
// by every segment it runs on: the normalized query and its COMP plan,
// built on first use — most queries never need one.
type unranked struct {
	norm lang.Query
	comp func() (*compPlan, error)
}

func planUnranked(norm lang.Query, reg *pred.Registry) *unranked {
	return &unranked{norm: norm, comp: sync.OnceValues(func() (*compPlan, error) { return planComp(norm, reg) })}
}

// compPlan is what the complete engine needs of a query under EngineAuto:
// the validated algebra plan and its grounding analysis.
type compPlan struct {
	plan fta.Expr
	an   *wand.Analysis
}

func planComp(norm lang.Query, reg *pred.Registry) (*compPlan, error) {
	plan, err := compeval.Compile(norm, reg)
	if err != nil {
		return nil, err
	}
	if err := fta.ValidateQuery(plan, reg); err != nil {
		return nil, err
	}
	return &compPlan{plan: plan, an: wand.Analyze(norm)}, nil
}

// dispatch evaluates a query on this index with engine e. live, when
// non-nil, drops tombstoned nodes from a candidate loop before they are
// evaluated. The string names the nodes EngineAuto's complete engine
// evaluated, as Explain prints it, and is empty for every other engine.
func (ix *Index) dispatch(u *unranked, e Engine, live wand.Live) ([]core.NodeID, string, error) {
	norm := u.norm
	switch e {
	case EngineAuto:
		switch lang.Classify(norm, ix.reg) {
		case lang.ClassBoolNoNeg, lang.ClassBool:
			nodes, err := booleval.Eval(norm, ix.inv, nil)
			return nodes, "", err
		case lang.ClassPPred:
			if plan, err := ppred.Compile(norm, ix.reg); err == nil {
				nodes, err := plan.Run(ix.inv, ix.reg, nil)
				if err == nil {
					return nodes, "", nil
				}
			}
			// The classifier is syntactic; fall back when planning fails.
		case lang.ClassNPred:
			if nodes, err := npred.Run(norm, ix.reg, ix.inv, nil, npred.Options{}); err == nil {
				return nodes, "", nil
			}
		}
		return ix.runComp(u, live)
	case EngineBOOL:
		nodes, err := booleval.Eval(norm, ix.inv, nil)
		return nodes, "", err
	case EnginePPRED:
		plan, err := ppred.Compile(norm, ix.reg)
		if err != nil {
			return nil, "", err
		}
		nodes, err := plan.Run(ix.inv, ix.reg, nil)
		return nodes, "", err
	case EngineNPRED:
		nodes, err := npred.Run(norm, ix.reg, ix.inv, nil, npred.Options{})
		return nodes, "", err
	case EngineCOMP:
		// The forced engine keeps the 1..N scan: it is the oracle the
		// candidate loop is checked against.
		nodes, err := compeval.Eval(norm, ix.inv, ix.reg, compeval.Options{})
		return nodes, "", err
	default:
		return nil, "", fmt.Errorf("fulltext: unknown engine %d", e)
	}
}

// runComp evaluates the query on the complete engine: on the candidates
// its grounding cover names, or by the 1..N scan when it has none.
func (ix *Index) runComp(u *unranked, live wand.Live) ([]core.NodeID, string, error) {
	cp, err := u.comp()
	if err != nil {
		return nil, "", err
	}
	ev := &fta.Evaluator{Index: ix.inv, Reg: ix.reg}
	if !cp.an.Grounded {
		res, err := ev.Eval(cp.plan)
		if err != nil {
			return nil, "", err
		}
		return res.Nodes, cp.an.Source(), nil
	}
	ms, err := wand.Collect(ev, cp.plan, cp.an, nil, live)
	if err != nil {
		return nil, "", err
	}
	nodes := make([]core.NodeID, len(ms))
	for i, m := range ms {
		nodes[i] = m.Node
	}
	return nodes, cp.an.Source(), nil
}

// RankOptions tunes ranked evaluation.
type RankOptions struct {
	// Exhaustive forces the full per-node scan even when the WAND fast
	// path could serve the query. It exists for verification and as the
	// baseline in benchmarks; results are identical either way.
	Exhaustive bool
	// NoThresholdSharing disables the cross-shard pruning threshold of
	// sharded top-K queries (ShardedIndex only; ignored on a single
	// index). Results are identical either way; late shards just score
	// more documents.
	NoThresholdSharing bool
	// NoAdaptiveFanout disables upper-bound-ordered shard dispatch of
	// sharded top-K queries (ShardedIndex only; ignored on a single
	// index). Results are identical either way; with adaptive fan-out the
	// shard that can raise the shared threshold most starts first, so late
	// shards begin pre-pruned. It exists for benchmarks isolating the
	// fan-out-order effect.
	NoAdaptiveFanout bool
	// Trace, when non-nil, receives plan/shard/merge child spans during
	// sharded evaluation (see internal/telemetry; ignored on a single
	// index). It never changes results and is excluded from the query
	// cache key.
	Trace *telemetry.Span
	// Recorder, when non-nil, additionally accumulates this query's own
	// evaluation work (per-segment, summed across the shard fan-out) so
	// callers can attribute docs-scored and blocks-skipped to individual
	// queries — the feed for per-shape analytics. It never changes results
	// and, like Trace, is excluded from the query cache key: a cache hit
	// records no evaluation work, which is accurate — none happened.
	Recorder *EvalRecorder
}

// EvalRecorder accumulates one query's evaluation work across the
// concurrent shard fan-out. The zero value is ready to use; pass it via
// RankOptions.Recorder and read Stats after the search returns. Safe for
// concurrent use (the sharded path adds from per-shard goroutines); a nil
// recorder discards all writes.
type EvalRecorder struct {
	rc rankedCounters
}

// Stats returns the work recorded so far.
func (r *EvalRecorder) Stats() RankedEvalStats {
	if r == nil {
		return RankedEvalStats{}
	}
	return r.rc.snapshot()
}

func (r *EvalRecorder) addWand(ws wand.Stats) {
	if r != nil {
		r.rc.addWand(ws)
	}
}

func (r *EvalRecorder) addExhaustive(ws wand.Stats) {
	if r != nil {
		r.rc.addExhaustive(ws)
	}
}

// SearchRanked evaluates the query with the chosen scoring model and
// returns matches sorted by descending score. topK <= 0 returns all
// matches. Positive topK on a ranked-eligible query — search tokens and
// SOME/HAS atoms under AND, OR and grounded NOT, with position predicates as
// filters (dist, phrases, distance/ordered/window chains) — takes the WAND
// fast path: cached index statistics make model construction O(query
// tokens), posting-list cursors enumerate only documents that can match,
// and top-K early termination skips documents whose score upper bound
// cannot reach the running K-th best. Everything else takes the exhaustive
// path (RankedPath says which, and why): it evaluates every match — the
// candidates a grounded query's posting lists name, or every node — and
// ranks them all. Both paths return identical results and scores.
func (ix *Index) SearchRanked(q *Query, m ScoringModel, topK int) ([]Match, error) {
	return ix.SearchRankedOpts(q, m, topK, RankOptions{})
}

// SearchRankedOpts is SearchRanked with explicit ranked-evaluation options.
func (ix *Index) SearchRankedOpts(q *Query, m ScoringModel, topK int, o RankOptions) ([]Match, error) {
	rp, err := planRanked(q, ix.analyzer, ix.reg, topK, o)
	if err != nil {
		return nil, err
	}
	ranked, err := ix.rankedNodes(rp, m, ix.inv, topK, o, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(ranked))
	for i, r := range ranked {
		out[i] = Match{ID: ix.idOf(r.Node), Score: r.Score}
	}
	return out, nil
}

// rankedPlan is the part of a ranked evaluation that depends on the query
// alone. It is built once per query and shared, read-only, by every
// segment of every shard: segments share the analyzer and the registry.
type rankedPlan struct {
	tokens []string       // the query's search tokens (score.TokensOf)
	plan   fta.Expr       // the validated algebra plan both paths evaluate
	wand   *wand.Analysis // nil when the query takes the exhaustive path
	cand   *wand.Analysis // the exhaustive path's candidates; nil: 1..N scan
	why    string         // why wand is nil
}

// planRanked rewrites, validates, normalizes, compiles and analyzes q.
func planRanked(q *Query, an *text.Analyzer, reg *pred.Registry, topK int, o RankOptions) (*rankedPlan, error) {
	ast := rewriteQueryTokens(q.ast, an)
	if err := lang.Validate(ast, reg); err != nil {
		return nil, err
	}
	// Normalize exactly as SearchWith does: the complete engine must see the
	// same shape (desugared negative predicates, hoisted quantifiers) the
	// Boolean path evaluates, or ranked and unranked results can diverge.
	norm := lang.Normalize(ast, reg)
	plan, err := compeval.Compile(norm, reg)
	if err != nil {
		return nil, err
	}
	if err := fta.ValidateQuery(plan, reg); err != nil {
		return nil, err
	}
	rp := &rankedPlan{tokens: score.TokensOf(norm), plan: plan}
	if o.Exhaustive {
		// The forced path keeps the 1..N scan: it is the oracle.
		rp.why = "forced"
		return rp, nil
	}
	a := wand.Analyze(norm)
	switch {
	case topK <= 0:
		rp.why = "no top-K"
	case a.Decline != "":
		rp.why = a.Decline
	default:
		rp.wand = a
		return rp, nil
	}
	if a.Grounded {
		rp.cand = a
	}
	return rp, nil
}

// path names the ranked evaluation path for spans and Explain.
func (rp *rankedPlan) path() string {
	switch {
	case rp.wand != nil:
		return "wand"
	case rp.cand != nil:
		return "exhaustive (" + rp.why + ", candidates)"
	}
	return "exhaustive (" + rp.why + ")"
}

// scorerFor builds the scoring model for a query's search tokens against
// the collection statistics st. Both models read the index's cached
// statistics block, so construction is O(query tokens) once the block is
// warm.
func (ix *Index) scorerFor(tokens []string, m ScoringModel, st score.CorpusStats) (wand.Scorer, error) {
	switch m {
	case TFIDF:
		return score.NewTFIDFWith(ix.inv, st, tokens), nil
	case PRA:
		return score.NewPRAWith(ix.inv, st), nil
	default:
		return nil, fmt.Errorf("fulltext: unknown scoring model %d", m)
	}
}

// rankedNodes scores a planned query against the collection statistics st
// — the index's own inverted lists for a standalone index, or global
// statistics when the index is one segment of a ShardedIndex — returning
// the top topK (all matches when topK <= 0). Queries the WAND bound admits
// run the WAND fast path; shared, when non-nil, is the cross-shard pruning
// threshold; live, when non-nil, filters tombstoned documents out before
// ranking (and before topK truncation) — before they are evaluated, except
// on the 1..N scan.
func (ix *Index) rankedNodes(rp *rankedPlan, m ScoringModel, st score.CorpusStats, topK int, o RankOptions, shared *wand.Shared, live wand.Live) ([]score.Ranked, error) {
	scorer, err := ix.scorerFor(rp.tokens, m, st)
	if err != nil {
		return nil, err
	}
	ev := &fta.Evaluator{Index: ix.inv, Reg: ix.reg, Scorer: scorer}
	if rp.wand != nil {
		var ws wand.Stats
		ranked, err := wand.Eval(ev, rp.plan, rp.wand, scorer, topK, shared, &ws, live)
		if err != nil {
			return nil, err
		}
		ix.rc.addWand(ws)
		o.Recorder.addWand(ws)
		return ranked, nil
	}
	var ranked []score.Ranked
	if rp.cand != nil {
		var ws wand.Stats
		if ranked, err = wand.Collect(ev, rp.plan, rp.cand, &ws, live); err != nil {
			return nil, err
		}
		ix.rc.addExhaustive(ws)
		o.Recorder.addExhaustive(ws)
		// score.Rank's order: descending score, ties by ascending node.
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].Score != ranked[j].Score {
				return ranked[i].Score > ranked[j].Score
			}
			return ranked[i].Node < ranked[j].Node
		})
	} else {
		res, err := ev.Eval(rp.plan)
		if err != nil {
			return nil, err
		}
		n := uint64(ix.inv.NumNodes())
		ix.rc.addExhaustive(wand.Stats{Candidates: n, Scored: n})
		o.Recorder.addExhaustive(wand.Stats{Candidates: n, Scored: n})
		ranked = score.Rank(res)
		if live != nil {
			kept := ranked[:0]
			for _, r := range ranked {
				if live(r.Node) {
					kept = append(kept, r)
				}
			}
			ranked = kept
		}
	}
	if topK > 0 && topK < len(ranked) {
		ranked = ranked[:topK]
	}
	return ranked, nil
}

// rankedUpperBound returns the largest score any document of this index
// could reach for the planned query: the sum over query tokens of their
// multiplicity-weighted per-list upper bounds. ok is false when the bound
// is unavailable without paying the O(index) statistics pass — the caller
// (adaptive shard fan-out) must then treat the index as unbounded. The
// bound is a planning hint only; it never affects results.
func (ix *Index) rankedUpperBound(rp *rankedPlan, m ScoringModel, st score.CorpusStats) (float64, bool) {
	if ix.inv.StatsBlockIfWarm(st) == nil {
		return 0, false
	}
	scorer, err := ix.scorerFor(rp.tokens, m, st)
	if err != nil {
		return 0, false
	}
	var ub float64
	for _, tok := range rp.wand.Tokens {
		ub += float64(rp.wand.Count[tok]) * scorer.UpperBound(tok)
	}
	return ub, true
}

// RankedPath reports which path a top-K ranked search of q takes: "wand",
// or "exhaustive (<reason>)" with the reason the fast path declined it.
func (ix *Index) RankedPath(q *Query) (string, error) {
	rp, err := planRanked(q, ix.analyzer, ix.reg, 1, RankOptions{})
	if err != nil {
		return "", err
	}
	return rp.path(), nil
}

// Explain reports which engine EngineAuto would pick and renders its query
// plan; for the complete engine it also names the nodes evaluated.
func (ix *Index) Explain(q *Query) (string, error) {
	ast := ix.rewrite(q)
	if err := lang.Validate(ast, ix.reg); err != nil {
		return "", err
	}
	norm := lang.Normalize(ast, ix.reg)
	class := lang.Classify(norm, ix.reg)
	switch class {
	case lang.ClassBoolNoNeg, lang.ClassBool:
		return fmt.Sprintf("engine: BOOL (class %s)\nmerge of posting lists for: %s\n", class, norm), nil
	case lang.ClassPPred:
		if plan, err := ppred.Compile(norm, ix.reg); err == nil {
			return fmt.Sprintf("engine: PPRED (class %s)\n%s", class, plan.Explain()), nil
		}
	case lang.ClassNPred:
		if plan, err := ppred.CompileNeg(norm, ix.reg); err == nil {
			orders := ""
			for _, b := range plan.NegBlocks() {
				orders += fmt.Sprintf("order threads over %v\n", b.Vars)
			}
			return fmt.Sprintf("engine: NPRED (class %s)\n%s%s", class, orders, plan.Explain()), nil
		}
	}
	cp, err := planComp(norm, ix.reg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("engine: COMP (class %s)\ncandidates: %s\n%s", class, cp.an.Source(), fta.Tree(cp.plan)), nil
}

func (ix *Index) matches(nodes []core.NodeID, scores map[core.NodeID]float64) []Match {
	out := make([]Match, 0, len(nodes))
	for _, n := range nodes {
		m := Match{ID: ix.idOf(n)}
		if scores != nil {
			m.Score = scores[n]
		}
		out = append(out, m)
	}
	return out
}

func (ix *Index) idOf(n core.NodeID) string {
	i := int(n) - 1
	if i < 0 || i >= len(ix.ids) {
		return fmt.Sprintf("node%d", n)
	}
	return ix.ids[i]
}
