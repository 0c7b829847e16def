package fulltext

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fulltext/internal/core"
	"fulltext/internal/errfs"
	"fulltext/internal/pred"
	"fulltext/internal/score"
	"fulltext/internal/segment"
	"fulltext/internal/shard"
	"fulltext/internal/telemetry"
	"fulltext/internal/text"
	"fulltext/internal/wal"
	"fulltext/internal/wand"
)

// DefaultQueryCacheSize is the query-result cache capacity a ShardedIndex
// gets at build/load time (entries, not bytes).
const DefaultQueryCacheSize = 256

// ShardedBuilder hash-partitions documents across N independent shard
// builders. Build produces a ShardedIndex whose results — IDs, order, and
// ranking scores — are identical to a single Index built over the same
// corpus, while queries fan out across shards in parallel.
type ShardedBuilder struct {
	shards []*Builder
	ords   [][]int // per shard: local doc ordinal -> global insertion ordinal
	seen   map[string]bool
	total  int
}

// NewShardedBuilder returns a builder partitioning documents across n
// shards (n < 1 is treated as 1) with no linguistic analysis.
func NewShardedBuilder(n int) *ShardedBuilder {
	return NewShardedBuilderWith(n, Options{})
}

// NewShardedBuilderWith is NewShardedBuilder with analysis options; every
// shard applies the same analyzer so query rewriting is shard-independent.
func NewShardedBuilderWith(n int, o Options) *ShardedBuilder {
	if n < 1 {
		n = 1
	}
	sb := &ShardedBuilder{
		shards: make([]*Builder, n),
		ords:   make([][]int, n),
		seen:   make(map[string]bool),
	}
	for i := range sb.shards {
		sb.shards[i] = NewBuilderWith(o)
	}
	return sb
}

// Add routes the document to its shard by ID hash and indexes it there.
// IDs must be unique across the whole sharded corpus.
func (sb *ShardedBuilder) Add(id, body string) error {
	return sb.add(id, func(b *Builder) error { return b.Add(id, body) })
}

// AddTokens adds a pre-tokenized document (see Builder.AddTokens).
func (sb *ShardedBuilder) AddTokens(id string, tokens []string) error {
	return sb.add(id, func(b *Builder) error { return b.AddTokens(id, tokens) })
}

func (sb *ShardedBuilder) add(id string, f func(b *Builder) error) error {
	if sb.seen[id] {
		return fmt.Errorf("fulltext: duplicate document id %q", id)
	}
	s := shard.Pick(id, len(sb.shards))
	if err := f(sb.shards[s]); err != nil {
		return err
	}
	sb.seen[id] = true
	sb.ords[s] = append(sb.ords[s], sb.total)
	sb.total++
	return nil
}

// Len returns the number of documents added so far.
func (sb *ShardedBuilder) Len() int { return sb.total }

// Shards returns the shard count.
func (sb *ShardedBuilder) Shards() int { return len(sb.shards) }

// Build constructs the sharded index: every shard becomes one immutable
// base segment, ready for incremental Add/Delete. The builder remains
// usable; each Build produces an independent index with a fresh query cache
// and a new build generation.
func (sb *ShardedBuilder) Build() *ShardedIndex {
	shards := make([]*Index, len(sb.shards))
	ords := make([][]int, len(sb.shards))
	for i, b := range sb.shards {
		shards[i] = b.Build()
		ords[i] = append([]int(nil), sb.ords[i]...)
	}
	s, err := newShardedIndex(shards, ords)
	if err != nil {
		// The builder's invariants (unique ids, dense increasing ordinals)
		// make constructor failure impossible; a panic here means a bug, not
		// bad input.
		panic(fmt.Sprintf("fulltext: building sharded index: %v", err))
	}
	s.rebuilds += uint64(len(shards))
	return s
}

// globalStats is the live collection-wide view the scoring models need so
// each segment scores as if it held the whole corpus (score.CorpusStats).
// It is maintained incrementally across Add/Delete — tombstoned documents
// are subtracted — so idf and node norms always match a from-scratch
// rebuild over the live documents. Mutations happen under the owning
// index's write lock.
type globalStats struct {
	nodes    int
	totalPos int
	df       map[string]int
}

func (g *globalStats) NumNodes() int     { return g.nodes }
func (g *globalStats) DF(tok string) int { return g.df[tok] }
func (g *globalStats) Tokens() int       { return len(g.df) }
func (g *globalStats) MaxDF() (maxDF int) {
	for _, df := range g.df {
		if df > maxDF {
			maxDF = df
		}
	}
	return maxDF
}

// seg pairs one immutable index fragment with the evaluation wrapper the
// engines need. The wrapped Index shares the container's predicate
// registry, analyzer and ranked counters; its id table is the segment's.
type seg struct {
	meta *segment.Segment
	ix   *Index
}

// docLoc locates a live document inside the container. It holds the
// segment pointer, not its slice position, so lazy merges only have to
// re-point the documents they rewrite.
type docLoc struct {
	shard int
	sg    *seg
	node  core.NodeID
}

// ShardedIndex is a set of hash-partitioned shards answering queries by
// parallel fan-out and, unlike the immutable single Index, accepting
// incremental updates. Each shard holds one immutable base segment plus a
// tail of delta segments: Add appends a delta in O(document) time without
// rebuilding anything (AddBatch amortizes N documents into one mutation),
// Delete tombstones in place in O(document) via the per-segment forward
// index, and a tiered policy merges segments lazily (see
// internal/segment) — merges above the policy's size threshold run on a
// background worker against copy-on-write segment snapshots, so neither
// readers nor small mutations ever wait on a compaction. Queries are
// rewritten, validated and normalized once, evaluated on every shard
// concurrently — within a shard, segment results merge in document order
// (Boolean) or through a bounded top-K heap (ranked) — and per-shard
// results merge the same way globally. Every segment scores against
// incrementally maintained global collection statistics, so results and
// scores are byte-identical to a from-scratch rebuild over the live
// documents. Merged results are memoized in an LRU cache keyed on
// (canonical query, engine/model, topK, build generation); mutations bump
// the generation and purge the cache (the old generation's entries could
// never hit again). All methods are safe for concurrent use; mutations
// serialize behind in-flight searches, but background merges do their
// heavy lifting off the lock.
type ShardedIndex struct {
	mu       sync.RWMutex
	shards   [][]*seg
	reg      *pred.Registry
	analyzer *text.Analyzer
	rc       *rankedCounters
	byID     map[string]docLoc
	nextOrd  int
	policy   segment.Policy

	stats *globalStats
	// cstats wraps stats with memoized derived statistics; its pointer
	// identity also keys each segment's cached scoring-statistics block, so
	// the O(segment) norms/upper-bound pass runs once per segment per
	// corpus version, shared by every query and scoring model. Mutations
	// install a fresh identity, invalidating the memos.
	cstats *score.Cached
	cache  *shard.Cache
	gen    uint64
	// blockSize, when positive, overrides the per-block score-bound
	// granularity of every segment, including ones created later by
	// deltas and merges (see SetStatsBlockSize).
	blockSize int

	// Background merge pool state (under mu except bgActive/bgCond, which
	// use their own bgMu so WaitMerges never touches the main lock; bgHook
	// is set only before any worker starts). A plain WaitGroup would not
	// do: mutations may legally schedule new merges from a zero counter
	// while another goroutine is blocked waiting, which is documented
	// WaitGroup misuse. At most bgMaxWorkers merges run concurrently
	// across all shards (and at most one per shard); further eligible
	// shards wait in the queued state and are taken largest reclaimable
	// tombstone mass first when a worker frees up.
	bgMu         sync.Mutex
	bgCond       *sync.Cond
	bgActive     int            // background merges in flight (under bgMu)
	bgState      []bgMergeState // per shard: idle, queued, or running
	bgPrio       []int          // per shard: queue priority while queued
	bgPlan       [][2]int       // per shard: the queued [lo, hi] merge range
	bgWorkers    int            // workers currently running (under mu)
	bgMaxWorkers int            // pool bound, from the policy (under mu)
	bgHook       func()         // test hook, runs between the off-lock merge and the swap

	// Durability state (see durable.go). wal, when attached, receives one
	// record per mutation before it is applied; appends happen under mu so
	// log order is application order. dataDir is where Checkpoint places
	// snapshots for an OpenDurable index.
	wal         *wal.Log
	dataDir     string
	fsys        errfs.FS // snapshot I/O filesystem; nil means errfs.OS
	recovery    RecoveryStats
	ckptMu      sync.Mutex         // serializes whole Checkpoint calls
	checkpoints uint64             // completed Checkpoint calls (under mu)
	lastCkptLSN uint64             // snapshot LSN of the newest completed checkpoint
	ckptHook    func(phase string) // test hook between checkpoint phases (set before use)

	// Auto-checkpoint state (see DurableOptions.AutoCheckpoint). autoCkpt
	// is fixed at open; the atomics carry the trigger baselines so the
	// post-mutation threshold check takes no locks; autoCkptBusy is the
	// single-flight latch; the WaitGroup lets Close drain an in-flight
	// auto checkpoint. Counters under mu.
	autoCkpt        AutoCheckpoint
	autoCkptBusy    atomic.Bool
	autoCkptWG      sync.WaitGroup
	autoLastLSN     atomic.Uint64 // log position at the last completed checkpoint
	autoLastBytes   atomic.Int64  // log bytes appended as of that checkpoint
	autoCheckpoints uint64        // auto-triggered checkpoints completed (under mu)
	autoCkptErr     error         // outcome of the newest auto checkpoint (under mu)

	// tel holds the push-style duration instruments installed by
	// EnableTelemetry (nil until then — and nil forever on an
	// un-instrumented index, which is why every use is guarded).
	// telInstalled keeps the instrument set across SetTelemetryEnabled
	// toggles so re-enabling never re-registers. Both written under mu;
	// tel is read under either lock mode.
	tel          *engineTel
	telInstalled *engineTel
	// telPending queues histogram observations recorded while the write
	// lock was held (inline merge timings): Histogram.Observe takes the
	// histogram's own mutex, which is off-limits inside the critical
	// section (see the locksafe analyzer), so mutation entry points
	// register flushMergeObs before taking mu and drain the queue after
	// the unlock. Guarded by telMu, never by mu.
	telMu      sync.Mutex
	telPending []pendingObs

	// Maintenance counters (under mu).
	rebuilds     uint64 // from-scratch shard builds (Build/load only — never Add/Delete)
	merges       uint64 // lazy merge operations applied (inline + background)
	segsMerged   uint64 // input segments consumed by those merges
	docsMerged   uint64 // live documents rewritten by those merges
	bgMerges     uint64 // merges completed on the background worker
	bgAborts     uint64 // background merge results discarded at validation
	bgTombstones uint64 // merged documents tombstoned for deletes that raced the merge
	fwdLookups   uint64 // Delete token-set recoveries served by the forward index
}

// newShardedIndex wraps per-shard indexes (from ShardedBuilder.Build or the
// FTSS v1/v2 load path) as single base segments.
func newShardedIndex(shards []*Index, ords [][]int) (*ShardedIndex, error) {
	segs := make([][]*segment.Segment, len(shards))
	for i, ix := range shards {
		m, err := segment.New(ix.inv, ix.ids, ords[i])
		if err != nil {
			return nil, fmt.Errorf("fulltext: shard %d: %w", i, err)
		}
		segs[i] = []*segment.Segment{m}
	}
	var analyzer *text.Analyzer
	if len(shards) > 0 {
		analyzer = shards[0].analyzer
	}
	return newShardedIndexFromSegments(segs, analyzer)
}

// newShardedIndexFromSegments is the shared constructor: it tallies live
// global statistics across all segments, indexes live document ids, and
// wraps every segment for evaluation under one registry/analyzer/counter
// set.
func newShardedIndexFromSegments(shardSegs [][]*segment.Segment, analyzer *text.Analyzer) (*ShardedIndex, error) {
	if analyzer == nil {
		analyzer = &text.Analyzer{}
	}
	s := &ShardedIndex{
		shards:   make([][]*seg, len(shardSegs)),
		reg:      pred.Default(),
		analyzer: analyzer,
		rc:       &rankedCounters{},
		byID:     make(map[string]docLoc),
		policy:   segment.DefaultPolicy(),
		stats:    &globalStats{df: make(map[string]int)},
		cache:    shard.NewCache(DefaultQueryCacheSize),
		gen:      shard.NextGeneration(),
		bgState:  make([]bgMergeState, len(shardSegs)),
		bgPrio:   make([]int, len(shardSegs)),
		bgPlan:   make([][2]int, len(shardSegs)),
	}
	s.bgMaxWorkers = s.policy.MaxWorkers()
	s.bgCond = sync.NewCond(&s.bgMu)
	for i, metas := range shardSegs {
		s.shards[i] = make([]*seg, len(metas))
		for j, m := range metas {
			sg := s.newSeg(m)
			s.shards[i][j] = sg
			m.TallyInto(&s.stats.nodes, s.stats.df, &s.stats.totalPos)
			for k, id := range m.IDs {
				n := core.NodeID(k + 1)
				if !m.Alive(n) {
					continue
				}
				if _, dup := s.byID[id]; dup {
					return nil, fmt.Errorf("fulltext: duplicate document id %q", id)
				}
				s.byID[id] = docLoc{shard: i, sg: sg, node: n}
				if m.Ords[k] >= s.nextOrd {
					s.nextOrd = m.Ords[k] + 1
				}
			}
			// Tombstoned documents still occupy their ordinals.
			if n := len(m.Ords); n > 0 && m.Ords[n-1] >= s.nextOrd {
				s.nextOrd = m.Ords[n-1] + 1
			}
		}
	}
	s.cstats = score.NewCached(s.stats)
	return s, nil
}

// newSeg wraps a segment for evaluation, sharing the container's registry,
// analyzer and ranked counters. Every segment — base, delta, or merge
// output — funnels through here, so a container-level block-size override
// reaches segments created after it was set.
func (s *ShardedIndex) newSeg(m *segment.Segment) *seg {
	if s.blockSize > 0 {
		m.Inv.SetBlockSize(s.blockSize)
	}
	return &seg{meta: m, ix: &Index{inv: m.Inv, reg: s.reg, ids: m.IDs, analyzer: s.analyzer, rc: s.rc}}
}

// SetStatsBlockSize overrides the posting-list block granularity used for
// per-block score bounds on every current and future segment (0 restores
// the default). Cached statistics rebuild at the new granularity on the
// next ranked query. Exists for tests and benchmarks — the default suits
// production. Not safe to call concurrently with searches.
func (s *ShardedIndex) SetStatsBlockSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blockSize = n
	for _, segs := range s.shards {
		for _, sg := range segs {
			sg.ix.inv.SetBlockSize(n)
		}
	}
}

// StatsBlockBuilds returns the total number of O(segment) statistics-block
// computation passes across all current segments. Tests use it to verify
// that a mutation in one shard does not force untouched segments to rebuild
// their cached blocks (the count excludes segments retired by merges).
func (s *ShardedIndex) StatsBlockBuilds() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, segs := range s.shards {
		for _, sg := range segs {
			n += sg.ix.inv.StatsBlockBuilds()
		}
	}
	return n
}

// Shards returns the shard count.
func (s *ShardedIndex) Shards() int {
	return len(s.shards) // immutable after construction
}

// Docs returns the number of live indexed documents.
func (s *ShardedIndex) Docs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats.nodes
}

// SetQueryCacheSize replaces the query cache with an empty one holding up
// to n entries (n <= 0 disables caching). Counters restart from zero. Not
// safe to call concurrently with searches.
func (s *ShardedIndex) SetQueryCacheSize(n int) { s.cache = shard.NewCache(n) }

// QueryCacheStats reports query-cache effectiveness.
type QueryCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Cap       int
}

// CacheStats returns a snapshot of the query cache counters.
func (s *ShardedIndex) CacheStats() QueryCacheStats {
	cs := s.cache.Stats()
	return QueryCacheStats{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Len: cs.Len, Cap: cs.Cap}
}

// Stats aggregates the complexity-model parameters across shards. Document,
// token, document-frequency and position totals count live documents only;
// the per-document and per-entry position maxima are upper bounds while
// tombstoned documents await compaction (a merge re-tightens them).
func (s *ShardedIndex) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{
		Docs:            s.stats.nodes,
		Tokens:          s.stats.Tokens(),
		TotalPositions:  s.stats.totalPos,
		EntriesPerToken: s.stats.MaxDF(),
	}
	for _, segs := range s.shards {
		for _, sg := range segs {
			st := sg.ix.inv.Stats()
			if st.PosPerCNode > out.PosPerDoc {
				out.PosPerDoc = st.PosPerCNode
			}
			if st.PosPerEntry > out.PosPerEntry {
				out.PosPerEntry = st.PosPerEntry
			}
		}
	}
	return out
}

// RegisterPredicate registers a custom position predicate, shared by every
// segment of every shard (see Index.RegisterPredicate). It takes the write
// lock: the registry mutation is excluded from concurrent searches and
// registrations.
func (s *ShardedIndex) RegisterPredicate(name string, posArity, constArity int, eval func(ords []int32, consts []int) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return registerPredicate(s.reg, name, posArity, constArity, eval)
}

// Classify places the query in the hierarchy (see Index.Classify).
func (s *ShardedIndex) Classify(q *Query) Class {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return classify(q, s.analyzer, s.reg)
}

// Explain reports the plan every segment of every shard runs (see
// Index.Explain): plans depend on the query, the analyzer and the
// registry, never on the data.
func (s *ShardedIndex) Explain(q *Query) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, err := newPlan(q, s.analyzer, s.reg, EngineAuto, 0, nil)
	if err != nil {
		return "", err
	}
	segs := 0
	for _, ss := range s.shards {
		segs += len(ss)
	}
	return fmt.Sprintf("shards: %d over %d segments (parallel fan-out, merge)\n%s", len(s.shards), segs, p.explain()), nil
}

// RankedPath reports which path a top-K ranked search of q takes (see
// Index.RankedPath).
func (s *ShardedIndex) RankedPath(q *Query) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, err := newPlan(q, s.analyzer, s.reg, EngineAuto, 1, &RankOptions{})
	if err != nil {
		return "", err
	}
	return p.path(), nil
}

// Search evaluates the query with the automatically selected engine on
// every shard in parallel and merges in document order.
func (s *ShardedIndex) Search(q *Query) ([]Match, error) {
	return s.SearchWith(q, EngineAuto)
}

// SearchWith is Search with an explicit engine.
func (s *ShardedIndex) SearchWith(q *Query, e Engine) ([]Match, error) {
	return s.SearchWithTrace(q, e, nil)
}

// SearchWithTrace is SearchWith recording plan/shard/merge child spans on
// tr (nil disables tracing; see internal/telemetry).
func (s *ShardedIndex) SearchWithTrace(q *Query, e Engine, tr *telemetry.Span) ([]Match, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tel := s.tel
	timed := tel != nil || tr != nil
	key := fmt.Sprintf("g%d|bool|%s|%s", s.gen, e, q)
	if docs, ok := s.cache.Get(key); ok {
		tr.Annotate("cache", "hit")
		return docsToMatches(docs, false), nil
	}
	p, err := s.planQuery(q, e, 0, nil, tel, tr)
	if err != nil {
		return nil, err
	}
	lists := make([][]shard.Doc, len(s.shards))
	err = shard.Fanout(len(s.shards), 0, func(i int) error {
		sp, st := s.startShardSpan(tel, tr, i)
		segLists := make([][]shard.Doc, 0, len(s.shards[i]))
		for _, sg := range s.shards[i] {
			nodes, err := sg.ix.run(p, sg.meta.LiveFilter())
			if err != nil {
				return err
			}
			segLists = append(segLists, sg.boolDocs(nodes))
		}
		if sp != nil && p.an != nil {
			sp.Annotate("nodes", p.an.Source())
		}
		lists[i] = shard.MergeByOrd(segLists)
		s.endShardSpan(tel, sp, st, len(s.shards[i]), len(lists[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	docs := shard.MergeByOrd(lists)
	if timed {
		d := time.Since(t0)
		if tel != nil {
			tel.mergeH.Observe(d.Seconds())
		}
		tr.ChildDone("merge", d)
	}
	s.cache.Put(key, docs)
	return docsToMatches(docs, false), nil
}

// planQuery builds the plan every segment runs for q (see newPlan): segments
// share the analyzer and the registry. When tel or tr is set, it records
// how long planning took in the plan histogram and as a "plan" span on tr
// noting the engine and any fallback, or the ranked path.
func (s *ShardedIndex) planQuery(q *Query, e Engine, topK int, ro *RankOptions, tel *engineTel, tr *telemetry.Span) (*plan, error) {
	if tel == nil && tr == nil {
		return newPlan(q, s.analyzer, s.reg, e, topK, ro)
	}
	t0 := time.Now()
	p, err := newPlan(q, s.analyzer, s.reg, e, topK, ro)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	if tel != nil {
		tel.planH.Observe(d.Seconds())
	}
	sp := tr.ChildDone("plan", d)
	switch {
	case sp == nil:
	case ro != nil:
		sp.Annotate("ranked_path", p.path())
	default:
		sp.Annotate("engine", p.engine)
		if p.fallback != "" {
			sp.Annotate("fallback", p.fallback)
		}
	}
	return p, nil
}

// startShardSpan begins the per-shard fan-out instrumentation: a child
// span named after the shard (only when tracing) and a start timestamp
// for the shard-evaluation histogram (only when either sink wants it).
func (s *ShardedIndex) startShardSpan(tel *engineTel, tr *telemetry.Span, i int) (*telemetry.Span, time.Time) {
	var sp *telemetry.Span
	if tr != nil {
		sp = tr.Child(fmt.Sprintf("shard %d", i))
	}
	var st time.Time
	if tel != nil || sp != nil {
		st = time.Now()
	}
	return sp, st
}

// endShardSpan closes what startShardSpan opened, annotating the span
// with the shard's segment count and merged result size.
func (s *ShardedIndex) endShardSpan(tel *engineTel, sp *telemetry.Span, st time.Time, segs, docs int) {
	if tel != nil {
		tel.shardH.ObserveSince(st)
	}
	if sp != nil {
		sp.Annotate("segments", segs)
		sp.Annotate("docs", docs)
		sp.End()
	}
}

// SearchRanked evaluates the query on every shard in parallel — each
// segment scoring against global collection statistics and contributing
// only its own top K candidates — then merges the global top K with a
// bounded min-heap. Eligible queries run each segment's WAND fast path, and
// the segments share the running K-th-best score through an atomic
// threshold so late segments skip documents that provably cannot enter the
// global top K. Results are identical to Index.SearchRanked on a single
// index over the live documents. topK <= 0 returns all matches.
func (s *ShardedIndex) SearchRanked(q *Query, m ScoringModel, topK int) ([]Match, error) {
	return s.SearchRankedOpts(q, m, topK, RankOptions{})
}

// SearchRankedOpts is SearchRanked with explicit ranked-evaluation options.
func (s *ShardedIndex) SearchRankedOpts(q *Query, m ScoringModel, topK int, o RankOptions) ([]Match, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tel := s.tel
	tr := o.Trace
	timed := tel != nil || tr != nil
	key := fmt.Sprintf("g%d|rank|%d|%d|%t%t%t|%s", s.gen, m, topK, o.Exhaustive, o.NoThresholdSharing, o.NoAdaptiveFanout, q)
	if docs, ok := s.cache.Get(key); ok {
		tr.Annotate("cache", "hit")
		return docsToMatches(docs, true), nil
	}
	p, err := s.planQuery(q, EngineAuto, topK, &o, tel, tr)
	if err != nil {
		return nil, err
	}
	var shared *wand.Shared
	if p.wand && !o.NoThresholdSharing {
		shared = wand.NewShared()
	}
	order := s.fanoutOrder(p, m, o, shared)
	lists := make([][]shard.Doc, len(s.shards))
	err = shard.FanoutOrdered(order, 0, func(i int) error {
		sp, st := s.startShardSpan(tel, tr, i)
		segLists := make([][]shard.Doc, 0, len(s.shards[i]))
		for _, sg := range s.shards[i] {
			ranked, err := sg.ix.rankedNodes(p, m, s.cstats, topK, o, shared, sg.meta.LiveFilter())
			if err != nil {
				return err
			}
			docs := make([]shard.Doc, len(ranked))
			for j, r := range ranked {
				docs[j] = shard.Doc{Ord: sg.meta.Ords[int(r.Node)-1], ID: sg.ix.idOf(r.Node), Score: r.Score}
			}
			segLists = append(segLists, docs)
		}
		lists[i] = shard.MergeTopK(segLists, topK)
		s.endShardSpan(tel, sp, st, len(s.shards[i]), len(lists[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	docs := shard.MergeTopK(lists, topK)
	if timed {
		d := time.Since(t0)
		if tel != nil {
			tel.mergeH.Observe(d.Seconds())
		}
		tr.ChildDone("merge", d)
	}
	s.cache.Put(key, docs)
	return docsToMatches(docs, true), nil
}

// fanoutOrder returns the shard dispatch order for a ranked query. With
// cross-shard threshold sharing on an eligible query, shards are ordered by
// descending global score upper bound (the max over their segments of the
// query's per-list upper-bound sum) so the shard that can raise the shared
// threshold most runs first and late shards start pre-pruned. The order
// delays goroutine launch only — every shard still runs and results are
// merged identically — so it can never change results. A shard with any
// cold segment (no cached statistics yet) gets an infinite bound and runs
// early, warming it where the wait is least likely to be on the critical
// path's tail.
func (s *ShardedIndex) fanoutOrder(p *plan, m ScoringModel, o RankOptions, shared *wand.Shared) []int {
	order := make([]int, len(s.shards))
	for i := range order {
		order[i] = i
	}
	if shared == nil || o.NoAdaptiveFanout || len(s.shards) < 2 {
		return order
	}
	bounds := make([]float64, len(s.shards))
	for i, segs := range s.shards {
		b := math.Inf(-1)
		for _, sg := range segs {
			ub, ok := sg.ix.rankedUpperBound(p, m, s.cstats)
			if !ok {
				b = math.Inf(1)
				break
			}
			if ub > b {
				b = ub
			}
		}
		bounds[i] = b
	}
	sort.SliceStable(order, func(x, y int) bool { return bounds[order[x]] > bounds[order[y]] })
	return order
}

// RankedEvalStats returns the container's cumulative ranked-query
// counters; every segment evaluation counts separately, so one sharded
// query increments the query counters once per segment. The ScoredDocs
// delta across a query is the observable effect of cross-shard threshold
// sharing.
func (s *ShardedIndex) RankedEvalStats() RankedEvalStats {
	return s.rc.snapshot()
}

// ShardStats reports each shard's index statistics (live doc counts,
// position totals, position maxima), in shard order. With multiple
// segments per shard, Tokens is the largest single-segment vocabulary (a
// lower bound on the shard's union vocabulary) and the position values
// include tombstoned documents until compaction.
func (s *ShardedIndex) ShardStats() []Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Stats, len(s.shards))
	for i, segs := range s.shards {
		for _, sg := range segs {
			st := sg.ix.inv.Stats()
			out[i].Docs += sg.meta.Live()
			out[i].TotalPositions += st.TotalPositions
			if st.Tokens > out[i].Tokens {
				out[i].Tokens = st.Tokens
			}
			if st.EntriesPerToken > out[i].EntriesPerToken {
				out[i].EntriesPerToken = st.EntriesPerToken
			}
			if st.PosPerCNode > out[i].PosPerDoc {
				out[i].PosPerDoc = st.PosPerCNode
			}
			if st.PosPerEntry > out[i].PosPerEntry {
				out[i].PosPerEntry = st.PosPerEntry
			}
		}
	}
	return out
}

// boolDocs projects segment-local Boolean results (ascending NodeID) into
// global document order; the segment's ordinal table preserves the
// ascending order, and tombstoned documents are dropped.
func (sg *seg) boolDocs(nodes []core.NodeID) []shard.Doc {
	docs := make([]shard.Doc, 0, len(nodes))
	for _, n := range nodes {
		if !sg.meta.Alive(n) {
			continue
		}
		docs = append(docs, shard.Doc{Ord: sg.meta.Ords[int(n)-1], ID: sg.ix.idOf(n)})
	}
	return docs
}

func docsToMatches(docs []shard.Doc, scored bool) []Match {
	out := make([]Match, len(docs))
	for i, d := range docs {
		out[i] = Match{ID: d.ID}
		if scored {
			out[i].Score = d.Score
		}
	}
	return out
}
