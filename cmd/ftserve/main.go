// ftserve is an HTTP search server over a sharded full-text index: queries
// fan out across shards in parallel, ranked results merge through a
// bounded top-K heap (eligible queries take the WAND fast path with a
// cross-shard pruning threshold), and repeated queries hit an LRU result
// cache. The front-end applies backpressure — a bounded concurrency
// semaphore that sheds load with 503 when saturated — enforces a
// per-request timeout, and emits one structured (JSON) access-log line per
// request.
//
// Usage:
//
//	ftserve -dir ./docs -shards 4 -addr :8080      index *.txt, serve
//	ftserve -dir ./docs -shards 4 -save idx.ftss   also persist the index
//	ftserve -load idx.ftss -addr :8080             serve a persisted index
//	ftserve -dir ./docs -inflight 128 -timeout 5s  tune backpressure
//
// The index is incrementally updatable: POST /docs appends a document as a
// delta segment on its hash shard (no shard rebuild), POST /docs/batch
// applies many documents as one mutation (one lock acquisition, one
// generation bump), DELETE /docs/{id} tombstones one in O(document) via
// the per-segment forward index (POST /docs/delete-batch does the same for
// many ids as one mutation), and a tiered policy merges segments lazily.
// Merges at or above the -bgmerge document threshold run on a bounded
// background worker pool (-merge-workers) against copy-on-write segment
// snapshots, so requests never wait on a large compaction (sub-threshold
// merges stay inline — they are cheap by definition). /stats exposes the
// per-shard segment tails and merge counters.
//
// With -data-dir the server is durable: every mutation is appended to a
// write-ahead log (sync policy per -wal-sync: "always" fsyncs per record,
// "interval" group-commits, "none" trusts the OS) before it is applied,
// startup recovers by loading the newest snapshot and replaying the log
// tail, and POST /checkpoint persists a fresh snapshot and truncates the
// replayed-over log prefix. Recovery counters appear under "wal" in
// /stats.
//
//	ftserve -data-dir ./data -shards 4            durable, fresh or recovered
//	ftserve -data-dir ./data -dir ./docs          seed an empty store from *.txt
//	ftserve -data-dir ./data -wal-sync always     fsync every mutation
//
// Observability: GET /metrics serves Prometheus text exposition — every
// endpoint's latency histogram plus the engine's query, WAND-pruning,
// merge-pool, WAL and checkpoint metrics (see internal/telemetry and the
// Observability section of docs/ARCHITECTURE.md). Query endpoints accept
// ?trace=1 to return a per-request span tree (plan, per-shard evaluation,
// merge) inline in the JSON response; -slow-query logs the same span tree
// via slog for any request exceeding the threshold; -pprof exposes
// net/http/pprof on /debug/pprof/, bypassing the request timeout so CPU
// profiles longer than -timeout still stream.
//
//	ftserve -data-dir ./data -slow-query 250ms    log span trees of slow requests
//	ftserve -dir ./docs -pprof                    enable live profiling
//
// The server also observes itself (see the Observability section of
// docs/ARCHITECTURE.md): a metric history store samples every instrument
// on -history-interval (default 10s, -history-retention 1h) so GET
// /metrics/history?window=5m answers with windowed rates and p50/p95/p99
// computed from bucket deltas; every query is fingerprinted to a shape
// (dialect + operator tree with literals replaced by placeholders) and
// tracked in a Space-Saving sketch served by GET /stats/queries; and
// declarative SLOs — -slo-latency-p99=50ms, -slo-availability=99.9 — are
// evaluated from the history with multi-window burn rates, exported as
// fulltext_slo_error_budget_remaining_ratio, detailed on GET /slo, and
// folded into GET /healthz, which stays 200 while ok or degraded and
// turns 503 only when an error budget is exhausted.
//
// Endpoints (all JSON unless noted):
//
//	GET    /search?q=QUERY&lang=comp&engine=auto&rank=none&top=10&trace=1
//	GET    /explain?q=QUERY&lang=comp[&rank=tfidf|pra]
//	POST   /docs               body {"id": "...", "body": "..."}
//	POST   /docs/batch         body {"docs": [{"id": "...", "body": "..."}, ...]}
//	POST   /docs/delete-batch  body {"ids": ["...", ...]}
//	DELETE /docs/{id}
//	POST   /checkpoint
//	GET    /stats
//	GET    /stats/queries?n=20           top query shapes (analytics sketch)
//	GET    /metrics                      Prometheus text exposition
//	GET    /metrics/history?window=5m    windowed rates and quantiles
//	GET    /slo                          per-objective burn rates and budgets
//	GET    /healthz                      degraded-aware health (503 = budget exhausted)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fulltext"
	"fulltext/internal/segment"
	"fulltext/internal/telemetry"
	"fulltext/internal/telemetry/analytics"
	"fulltext/internal/telemetry/history"
	"fulltext/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dir      = flag.String("dir", "", "directory of .txt files to index (one document per file)")
		load     = flag.String("load", "", "load a persisted sharded index instead of building one")
		save     = flag.String("save", "", "persist the built index to this file")
		shards   = flag.Int("shards", 4, "number of index shards when building with -dir or opening a fresh -data-dir")
		cache    = flag.Int("cache", fulltext.DefaultQueryCacheSize, "query-result cache capacity in entries (0 disables)")
		inflight = flag.Int("inflight", 64, "max concurrent requests before shedding load with 503 (0 disables the limiter)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout (0 disables)")
		bgmerge  = flag.Int("bgmerge", 0, "min input docs for a segment merge to run on the background pool (0 = default 4096, negative = always inline)")
		workers  = flag.Int("merge-workers", 0, "max concurrent background merges (0 = default GOMAXPROCS/2)")

		dataDir       = flag.String("data-dir", "", "durable data directory: snapshot + write-ahead log, with crash recovery on start")
		walSync       = flag.String("wal-sync", "interval", "WAL fsync policy: always (per record), interval (group commit), or none")
		walEvery      = flag.Duration("wal-sync-interval", wal.DefaultInterval, "group-commit fsync cadence under -wal-sync interval")
		autoCkptBytes = flag.Int64("auto-checkpoint-bytes", 0, "checkpoint automatically once this many WAL bytes accumulate since the last checkpoint (0 disables)")
		autoCkptRecs  = flag.Uint64("auto-checkpoint-records", 0, "checkpoint automatically once this many WAL records accumulate since the last checkpoint (0 disables)")

		slowQuery = flag.Duration("slow-query", 0, "log the span tree of any request slower than this via slog (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof on /debug/pprof/ (bypasses the request timeout)")

		histEvery = flag.Duration("history-interval", history.DefaultInterval, "metric history sampling cadence (0 disables the history store)")
		histKeep  = flag.Duration("history-retention", history.DefaultRetention, "metric history retention horizon")
		shapes    = flag.Int("query-shapes", analytics.DefaultCapacity, "query-shape analytics sketch capacity (0 disables /stats/queries)")
		sloP99    = flag.Duration("slo-latency-p99", 0, "latency objective: 99% of requests complete within this (0 disables)")
		sloAvail  = flag.Float64("slo-availability", 0, "availability objective: percent of responses that must not be 5xx, e.g. 99.9 (0 disables)")
	)
	flag.Parse()

	auto := fulltext.AutoCheckpoint{MaxLogBytes: *autoCkptBytes, MaxLogRecords: *autoCkptRecs}
	ix, err := buildOrLoad(*dir, *load, *dataDir, *shards, *walSync, *walEvery, auto)
	if err != nil {
		fatal(err)
	}
	ix.SetQueryCacheSize(*cache)
	if *bgmerge != 0 || *workers != 0 {
		p := segment.DefaultPolicy()
		if *bgmerge != 0 {
			p.BackgroundMinDocs = *bgmerge
		}
		if *workers != 0 {
			p.MaxBackgroundWorkers = *workers
		}
		ix.SetMergePolicy(p)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if _, err := ix.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		log.Printf("index saved to %s", *save)
	}
	cfg := serverConfig{
		MaxInflight:      *inflight,
		Timeout:          *timeout,
		AccessLog:        slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		SlowQuery:        *slowQuery,
		PProf:            *pprofOn,
		HistoryInterval:  *histEvery,
		HistoryRetention: *histKeep,
		QueryShapes:      *shapes,
		SLOLatencyP99:    *sloP99,
		SLOAvailability:  *sloAvail,
	}
	if *histEvery == 0 {
		cfg.HistoryInterval = -1 // flag 0 means "off"; config uses negative
	}
	if *shapes == 0 {
		cfg.QueryShapes = -1
	}
	log.Printf("serving %d documents across %d shards on %s (inflight=%d timeout=%s slow-query=%s pprof=%t)",
		ix.Docs(), ix.Shards(), *addr, *inflight, *timeout, *slowQuery, *pprofOn)
	if err := http.ListenAndServe(*addr, newServerWith(ix, cfg)); err != nil {
		fatal(err)
	}
}

func buildOrLoad(dir, load, dataDir string, shards int, walSync string, walEvery time.Duration, auto fulltext.AutoCheckpoint) (*fulltext.ShardedIndex, error) {
	if dataDir != "" {
		if load != "" {
			return nil, fmt.Errorf("-data-dir and -load are mutually exclusive (a data directory carries its own snapshots)")
		}
		return openDurable(dir, dataDir, shards, walSync, walEvery, auto)
	}
	switch {
	case load != "":
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fulltext.ReadShardedIndex(f)
	case dir != "":
		docs, err := readTxtDir(dir)
		if err != nil {
			return nil, err
		}
		b := fulltext.NewShardedBuilder(shards)
		for _, d := range docs {
			if err := b.Add(d.ID, d.Body); err != nil {
				return nil, err
			}
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("one of -dir, -load, or -data-dir is required")
	}
}

// openDurable opens the durable store, logging what recovery replayed, and
// seeds an empty store from -dir when both are given (the seed batch goes
// through the write-ahead log like any other mutation).
func openDurable(dir, dataDir string, shards int, walSync string, walEvery time.Duration, auto fulltext.AutoCheckpoint) (*fulltext.ShardedIndex, error) {
	policy, err := wal.ParseSyncPolicy(walSync)
	if err != nil {
		return nil, err
	}
	ix, err := fulltext.OpenDurable(dataDir, fulltext.DurableOptions{
		Shards:         shards,
		Sync:           policy,
		SyncInterval:   walEvery,
		AutoCheckpoint: auto,
	})
	if err != nil {
		return nil, err
	}
	rec := ix.WALStats().Recovery
	log.Printf("recovered %s: snapshot LSN %d, replayed %d records (%d adds, %d deletes, %d skipped) in %s",
		dataDir, rec.SnapshotLSN, rec.ReplayedRecords, rec.ReplayedAdds, rec.ReplayedDeletes,
		rec.SkippedRecords, rec.ReplayDuration.Round(time.Millisecond))
	if dir != "" && ix.Docs() == 0 {
		docs, err := readTxtDir(dir)
		if err != nil {
			return nil, err
		}
		if err := ix.AddBatch(docs); err != nil {
			return nil, err
		}
		log.Printf("seeded %d documents from %s", len(docs), dir)
	}
	return ix, nil
}

// readTxtDir reads a directory of .txt files, one document per file, in
// name order.
func readTxtDir(dir string) ([]fulltext.Document, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no .txt files in %s", dir)
	}
	docs := make([]fulltext.Document, 0, len(files))
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		docs = append(docs, fulltext.Document{ID: strings.TrimSuffix(name, ".txt"), Body: string(data)})
	}
	return docs, nil
}

// maxTop caps the top query parameter of ranked searches.
const maxTop = 1000

// serverConfig tunes the HTTP front-end middleware.
type serverConfig struct {
	// MaxInflight bounds concurrently served requests; excess requests are
	// shed immediately with 503 (0 disables the limiter).
	MaxInflight int
	// Timeout aborts requests exceeding it with 503 (0 disables).
	Timeout time.Duration
	// AccessLog, when non-nil, receives one structured line per request.
	AccessLog *slog.Logger
	// SlowQuery, when positive, logs the span tree of any request slower
	// than it (via AccessLog, or slog's default logger without one).
	SlowQuery time.Duration
	// PProf exposes net/http/pprof on /debug/pprof/, outside the request
	// timeout and the inflight limiter (a CPU profile streams for longer
	// than any sane request timeout).
	PProf bool
	// HistoryInterval is the metric-history sampling cadence: 0 means the
	// package default (10s), negative disables the history store (and with
	// it the SLO engine, which evaluates from history).
	HistoryInterval time.Duration
	// HistoryRetention bounds how far back /metrics/history windows reach
	// (0 means the package default, 1h).
	HistoryRetention time.Duration
	// QueryShapes is the analytics sketch capacity: 0 means the package
	// default (128), negative disables query-shape tracking.
	QueryShapes int
	// SLOLatencyP99, when positive, declares the latency objective "99% of
	// requests complete within this".
	SLOLatencyP99 time.Duration
	// SLOAvailability, when in (0, 100), declares the availability
	// objective "this percent of responses are not 5xx".
	SLOAvailability float64
	// sloFast/sloSlow shrink the SLO evaluation windows; tests only
	// (zero means the fleet-standard 5m/1h).
	sloFast, sloSlow time.Duration
}

// server wraps the sharded index with the HTTP front-end. Every server
// owns a telemetry registry (per-endpoint latency histograms plus the
// engine metrics EnableTelemetry registers) and a tracer handing out
// per-request span trees.
type server struct {
	ix      *fulltext.ShardedIndex
	started time.Time
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	reqH    map[string]*telemetry.Histogram // endpoint -> latency histogram
	slow    time.Duration
	slowLog *slog.Logger
	slowN   atomic.Uint64 // requests over the slow-query threshold
	shed    atomic.Uint64 // 503s from the inflight limiter

	handler http.Handler // the assembled middleware chain
	// The self-observation layer: response-class counters feeding the
	// availability objective, the metric history store, the SLO engine
	// evaluated from it, and the query-shape analytics sketch. hist/slo/
	// sketch may be nil (disabled); every use is nil-safe.
	respClass map[string]*telemetry.Counter // "2xx"... -> responses counter
	hist      *history.History
	slo       *history.SLO
	sketch    *analytics.Sketch
}

// ServeHTTP hands the request to the assembled middleware chain.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close stops the history sampler goroutine. The HTTP handler keeps
// working (windows just stop advancing); tests use this to end cleanly.
func (s *server) Close() { s.hist.Close() }

// endpointNames maps route patterns to the endpoint label of
// fulltext_http_request_duration_seconds, registered eagerly so the
// metric family is complete (all series present, even at zero) from the
// first scrape.
var endpointNames = map[string]string{
	"GET /search":             "search",
	"GET /explain":            "explain",
	"POST /docs":              "docs",
	"POST /docs/batch":        "docs_batch",
	"POST /docs/delete-batch": "delete_batch",
	"DELETE /docs/{id}":       "delete_doc",
	"POST /checkpoint":        "checkpoint",
	"GET /stats":              "stats",
	"GET /stats/queries":      "stats_queries",
	"GET /metrics/history":    "metrics_history",
	"GET /slo":                "slo",
	"GET /healthz":            "healthz",
}

// newServer builds the route table with default middleware settings;
// extracted from main so tests can drive it through httptest.
func newServer(ix *fulltext.ShardedIndex) http.Handler {
	return newServerWith(ix, serverConfig{MaxInflight: 64, Timeout: 10 * time.Second})
}

// newServerWith builds the route table and wraps it in the middleware
// chain: access logging outermost (so shed and timed-out requests are
// logged with their real status), then response-class counting (outside
// the timeout and the limiter, so timed-out and shed 503s burn the
// availability budget they should), then the request timeout, then the
// bounded-semaphore limiter around the actual work. Every route is
// individually wrapped by instrument, which feeds the endpoint's latency
// histogram and owns the per-request trace span.
func newServerWith(ix *fulltext.ShardedIndex, cfg serverConfig) *server {
	s := &server{
		ix:      ix,
		started: time.Now(),
		reg:     telemetry.New(),
		tracer:  telemetry.NewTracer(),
		reqH:    make(map[string]*telemetry.Histogram, len(endpointNames)),
		slow:    cfg.SlowQuery,
		slowLog: cfg.AccessLog,
	}
	if s.slowLog == nil {
		s.slowLog = slog.Default()
	}
	ix.EnableTelemetry(s.reg)
	for _, name := range endpointNames {
		s.reqH[name] = s.reg.Histogram("fulltext_http_request_duration_seconds",
			"Request latency by endpoint.", nil,
			telemetry.Label{Name: "endpoint", Value: name})
	}
	s.reg.CounterFunc("fulltext_http_shed_requests_total",
		"Requests shed with 503 by the inflight limiter.", s.shed.Load)
	s.reg.CounterFunc("fulltext_http_slow_queries_total",
		"Requests exceeding the -slow-query threshold.", s.slowN.Load)
	s.reg.CounterFunc("fulltext_trace_spans_started_total",
		"Trace spans started (roots and children).", s.tracer.Started)
	s.reg.CounterFunc("fulltext_trace_spans_dropped_total",
		"Trace spans refused at the per-trace cap.", s.tracer.Dropped)
	s.reg.GaugeFunc("fulltext_uptime_seconds", "Server uptime.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Response classes, registered eagerly so the availability objective's
	// denominator family is complete from the first scrape.
	s.respClass = make(map[string]*telemetry.Counter, 4)
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		s.respClass[class] = s.reg.Counter("fulltext_http_responses_total",
			"Responses by status class, counted outside the timeout and the limiter.",
			telemetry.Label{Name: "class", Value: class})
	}

	if cfg.QueryShapes >= 0 {
		s.sketch = analytics.New(cfg.QueryShapes)
		s.reg.GaugeFunc("fulltext_query_shapes_tracked",
			"Query shapes currently held by the analytics sketch.",
			func() float64 { return float64(s.sketch.Len()) })
		s.reg.CounterFunc("fulltext_query_shape_evictions_total",
			"Space-Saving takeovers in the analytics sketch.", s.sketch.Evictions)
	}

	if cfg.HistoryInterval >= 0 {
		s.hist = history.New(s.reg, history.Options{
			Interval:  cfg.HistoryInterval,
			Retention: cfg.HistoryRetention,
		})
		slo := history.NewSLO(s.hist, history.SLOOptions{
			FastWindow: cfg.sloFast,
			SlowWindow: cfg.sloSlow,
		})
		if cfg.SLOLatencyP99 > 0 {
			slo.AddLatencyObjective("latency_p99",
				"fulltext_http_request_duration_seconds", 0.99, cfg.SLOLatencyP99)
		}
		if cfg.SLOAvailability > 0 {
			slo.AddAvailabilityObjective("availability",
				"fulltext_http_responses_total",
				telemetry.Label{Name: "class", Value: "5xx"}, cfg.SLOAvailability)
		}
		if slo.Objectives() > 0 {
			s.slo = slo
			s.slo.Register(s.reg)
		}
	}

	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(endpointNames[pattern], h))
	}
	route("GET /search", s.handleSearch)
	route("GET /explain", s.handleExplain)
	route("POST /docs", s.handleAddDoc)
	route("POST /docs/batch", s.handleAddBatch)
	route("POST /docs/delete-batch", s.handleDeleteBatch)
	route("DELETE /docs/{id}", s.handleDeleteDoc)
	route("POST /checkpoint", s.handleCheckpoint)
	route("GET /stats", s.handleStats)
	route("GET /stats/queries", s.handleStatsQueries)
	route("GET /metrics/history", s.handleMetricsHistory)
	route("GET /slo", s.handleSLO)
	route("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	h := http.Handler(mux)
	h = s.limitInflight(h, cfg.MaxInflight)
	if cfg.Timeout > 0 {
		h = withJSONTimeout(h, cfg.Timeout)
	}
	h = s.countResponses(h)
	if cfg.PProf {
		h = withPProf(h)
	}
	if cfg.AccessLog != nil {
		h = accessLog(h, cfg.AccessLog)
	}
	s.handler = h
	// Start sampling only after every instrument (including the SLO
	// gauges) is registered, so the first tick already carries the full
	// vocabulary.
	s.hist.Start()
	return s
}

// countResponses feeds fulltext_http_responses_total{class=...} — the
// availability objective's event stream. It sits outside the timeout and
// the inflight limiter so their 503s count as served (bad) responses,
// and inside pprof routing so profile streams do not.
func (s *server) countResponses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		class := "2xx"
		switch {
		case rec.status >= 500:
			class = "5xx"
		case rec.status >= 400:
			class = "4xx"
		case rec.status >= 300:
			class = "3xx"
		}
		s.respClass[class].Inc()
	})
}

// spanKey carries the request's root trace span in its context.
type spanKey struct{}

// spanFrom returns the request's trace span, nil when the request is not
// traced — safe to pass on as-is, every span method is nil-safe.
func spanFrom(r *http.Request) *telemetry.Span {
	sp, _ := r.Context().Value(spanKey{}).(*telemetry.Span)
	return sp
}

// traced reports whether the client asked for the span tree inline
// (?trace=1 or any other strconv truthy value).
func traced(r *http.Request) bool {
	ok, err := strconv.ParseBool(r.URL.Query().Get("trace"))
	return err == nil && ok
}

// instrument wraps one route: it observes the endpoint latency histogram
// on every request and, when the client asked for a trace or a
// slow-query threshold is armed, threads a root span through the request
// context, logging its tree when the request comes in over the
// threshold.
func (s *server) instrument(endpoint string, next http.Handler) http.Handler {
	h := s.reqH[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sp *telemetry.Span
		if traced(r) || s.slow > 0 {
			sp = s.tracer.Start(endpoint)
			sp.Annotate("method", r.Method)
			sp.Annotate("path", r.URL.Path)
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		took := time.Since(start)
		h.Observe(took.Seconds())
		sp.End()
		if s.slow > 0 && took >= s.slow {
			s.slowN.Add(1)
			tree, err := json.Marshal(sp)
			if err != nil {
				tree = []byte("null")
			}
			s.slowLog.Warn("slow request",
				"endpoint", endpoint,
				"query", r.URL.RawQuery,
				"duration_ms", float64(took.Microseconds())/1000,
				"threshold_ms", float64(s.slow.Microseconds())/1000,
				"trace", json.RawMessage(tree),
			)
		}
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ExpositionContentType)
	if _, err := s.reg.WriteTo(w); err != nil {
		log.Printf("ftserve: writing /metrics: %v", err)
	}
}

// withPProf routes /debug/pprof/ to net/http/pprof ahead of the timeout
// and inflight middleware: profiles stream for longer than any request
// timeout, and a saturated server is exactly when profiling matters.
func withPProf(next http.Handler) http.Handler {
	pp := http.NewServeMux()
	pp.HandleFunc("/debug/pprof/", pprof.Index)
	pp.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pp.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pp.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pp.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			pp.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withJSONTimeout aborts requests exceeding d with a 503. TimeoutHandler
// writes its body without a Content-Type (the sniffer would label the
// JSON text/plain); pre-setting it keeps the all-JSON contract — handlers
// that complete in time overwrite it when TimeoutHandler copies their
// headers out.
func withJSONTimeout(next http.Handler, d time.Duration) http.Handler {
	inner := http.TimeoutHandler(next, d, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		inner.ServeHTTP(w, r)
	})
}

// limitInflight is the bounded semaphore: requests acquire a slot without
// blocking and are shed with 503 when none is free, so saturation degrades
// into fast failures instead of unbounded queueing.
func (s *server) limitInflight(next http.Handler, n int) http.Handler {
	if n <= 0 {
		return next
	}
	slots := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		default:
			s.shed.Add(1)
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server saturated: %d requests in flight", n))
		}
	})
}

func (s *server) shedCount() uint64 { return s.shed.Load() }

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// accessLog emits one structured line per request.
func accessLog(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", rec.status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// latencySnapshot is the per-endpoint latency section of /stats, derived
// from the endpoint's registry histogram. The JSON shape is the one the
// old rolling-window tracker served; Window now mirrors Count because a
// histogram aggregates the whole lifetime rather than the last N
// requests, and the percentiles are bucket-interpolated estimates (see
// telemetry.HistogramSnapshot.Quantile) rather than exact order
// statistics.
type latencySnapshot struct {
	Count  uint64  `json:"count"`
	Window uint64  `json:"window"`
	AvgMS  float64 `json:"avg_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// latencyOf renders one endpoint histogram as the /stats latency shape.
func latencyOf(h *telemetry.Histogram) latencySnapshot {
	snap := h.Snapshot()
	out := latencySnapshot{Count: snap.Count, Window: snap.Count}
	if snap.Count == 0 {
		return out
	}
	toMS := 1000.0
	out.AvgMS = snap.Mean() * toMS
	out.P50MS = snap.Quantile(0.50) * toMS
	out.P95MS = snap.Quantile(0.95) * toMS
	out.P99MS = snap.Quantile(0.99) * toMS
	return out
}

type matchJSON struct {
	ID    string   `json:"id"`
	Score *float64 `json:"score,omitempty"`
}

type searchResponse struct {
	Query   string      `json:"query"`
	Class   string      `json:"class"`
	Count   int         `json:"count"`
	TookMS  float64     `json:"took_ms"`
	Matches []matchJSON `json:"matches"`
	// Trace is the request's span tree, present only under ?trace=1.
	Trace *telemetry.SpanJSON `json:"trace,omitempty"`
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := parseQueryParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var (
		matches []fulltext.Match
		ranked  bool
		start   = time.Now()
		sp      = spanFrom(r)
		rec     *fulltext.EvalRecorder
		shape   string
	)
	sp.Annotate("query", q.String())
	if s.sketch != nil || sp != nil {
		// One AST walk; the span annotation puts the shape in ?trace=1
		// responses and -slow-query log lines.
		shape = q.Shape()
		sp.Annotate("shape", shape)
	}
	if s.sketch != nil {
		rec = &fulltext.EvalRecorder{}
	}
	record := func(failed bool) {
		if s.sketch == nil {
			return
		}
		st := rec.Stats()
		s.sketch.Record(shape, analytics.Observation{
			Latency:       time.Since(start),
			DocsScored:    st.ScoredDocs,
			BlocksSkipped: st.BlocksSkipped,
			Err:           failed,
		})
	}
	switch rank := r.URL.Query().Get("rank"); rank {
	case "", "none":
		engine, err := parseEngine(r.URL.Query().Get("engine"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		matches, err = s.ix.SearchWithTrace(q, engine, sp)
		if err != nil {
			record(true)
			httpError(w, http.StatusBadRequest, err)
			return
		}
	case "tfidf", "pra":
		model := fulltext.TFIDF
		if rank == "pra" {
			model = fulltext.PRA
		}
		top := 10
		if ts := r.URL.Query().Get("top"); ts != "" {
			if top, err = strconv.Atoi(ts); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", ts))
				return
			}
			// Bounded so a client can neither force a full-corpus response
			// (topK <= 0 means "all" in the library) nor churn the query
			// cache with one entry per arbitrary top value.
			if top < 1 || top > maxTop {
				httpError(w, http.StatusBadRequest, fmt.Errorf("top must be between 1 and %d", maxTop))
				return
			}
		}
		ranked = true
		matches, err = s.ix.SearchRankedOpts(q, model, top, fulltext.RankOptions{Trace: sp, Recorder: rec})
		if err != nil {
			record(true)
			httpError(w, http.StatusBadRequest, err)
			return
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown rank %q (want none, tfidf, or pra)", rank))
		return
	}
	record(false)
	took := time.Since(start)
	resp := searchResponse{
		Query:   q.String(),
		Class:   s.ix.Classify(q).String(),
		Count:   len(matches),
		TookMS:  float64(took.Microseconds()) / 1000,
		Matches: make([]matchJSON, len(matches)),
	}
	for i, m := range matches {
		resp.Matches[i] = matchJSON{ID: m.ID}
		if ranked {
			score := m.Score
			resp.Matches[i].Score = &score
		}
	}
	if sp != nil && traced(r) {
		tree := sp.Tree()
		resp.Trace = &tree
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := parseQueryParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.ix.Explain(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	switch rank := r.URL.Query().Get("rank"); rank {
	case "", "none":
	case "tfidf", "pra":
		path, err := s.ix.RankedPath(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		plan += "ranked path: " + path + "\n"
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown rank %q (want none, tfidf, or pra)", rank))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"query": q.String(),
		"class": s.ix.Classify(q).String(),
		"plan":  plan,
	})
}

// addDocRequest is the POST /docs body.
type addDocRequest struct {
	ID   string `json:"id"`
	Body string `json:"body"`
}

// maxDocBody bounds one POST /docs payload; maxBatchBody bounds one
// POST /docs/batch payload (many documents amortized into one mutation).
const (
	maxDocBody   = 1 << 22 // 4 MiB
	maxBatchBody = 1 << 26 // 64 MiB
)

func (s *server) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	var req addDocRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxDocBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding document: %w", err))
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing document id"))
		return
	}
	start := time.Now()
	if err := s.ix.Add(req.ID, req.Body); err != nil {
		// A live document already owns the id: 409. Anything else is a
		// validation failure in the request itself.
		code := http.StatusBadRequest
		if errors.Is(err, fulltext.ErrDuplicateID) {
			code = http.StatusConflict
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":      req.ID,
		"docs":    s.ix.Docs(),
		"took_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// addBatchRequest is the POST /docs/batch body.
type addBatchRequest struct {
	Docs []addDocRequest `json:"docs"`
}

func (s *server) handleAddBatch(w http.ResponseWriter, r *http.Request) {
	var req addBatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding batch: %w", err))
		return
	}
	if len(req.Docs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	docs := make([]fulltext.Document, len(req.Docs))
	for i, d := range req.Docs {
		if d.ID == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("document %d: missing id", i))
			return
		}
		// The batch limit bounds the request; each document inside it obeys
		// the same cap POST /docs enforces, so batching is not a loophole
		// for oversized documents.
		if len(d.Body) > maxDocBody {
			httpError(w, http.StatusBadRequest, fmt.Errorf("document %d (%q): body exceeds %d bytes", i, d.ID, maxDocBody))
			return
		}
		docs[i] = fulltext.Document{ID: d.ID, Body: d.Body}
	}
	start := time.Now()
	// AddBatch is all-or-nothing: on any error (including a duplicate id
	// anywhere in the batch) no document was applied.
	if err := s.ix.AddBatch(docs); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, fulltext.ErrDuplicateID) {
			code = http.StatusConflict
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"added":   len(docs),
		"docs":    s.ix.Docs(),
		"took_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// deleteBatchRequest is the POST /docs/delete-batch body.
type deleteBatchRequest struct {
	IDs []string `json:"ids"`
}

func (s *server) handleDeleteBatch(w http.ResponseWriter, r *http.Request) {
	var req deleteBatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding batch: %w", err))
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	start := time.Now()
	// Misses are skipped, not errors — bulk expiry routinely re-deletes —
	// so the response reports both requested and deleted counts. The only
	// failure mode is the durable write-ahead log append.
	deleted, err := s.ix.DeleteBatch(req.IDs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"requested": len(req.IDs),
		"deleted":   deleted,
		"docs":      s.ix.Docs(),
		"took_ms":   float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ck, err := s.ix.Checkpoint("")
	if err != nil {
		// Without -data-dir there is nothing to checkpoint into: the
		// request is wrong for this deployment, not a server fault.
		code := http.StatusConflict
		if s.ix.WALStats().Attached {
			code = http.StatusInternalServerError
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"lsn":                ck.LSN,
		"snapshot_bytes":     ck.SnapshotBytes,
		"truncated_segments": ck.TruncatedSegments,
		"took_ms":            float64(ck.Duration.Microseconds()) / 1000,
	})
}

func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	start := time.Now()
	// Delete reports hit/miss only — deleting a live document cannot fail —
	// so the handler has exactly two outcomes: 200 or 404.
	if !s.ix.Delete(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("no live document %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"docs":    s.ix.Docs(),
		"took_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	cs := s.ix.CacheStats()
	rs := s.ix.RankedEvalStats()
	gs := s.ix.SegmentStats()
	perShard := make([]map[string]int, 0, s.ix.Shards())
	for i, ss := range s.ix.ShardStats() {
		perShard = append(perShard, map[string]int{
			"shard":           i,
			"docs":            ss.Docs,
			"tokens":          ss.Tokens,
			"total_positions": ss.TotalPositions,
			"segments":        gs.Shards[i].Segments,
			"delta_segments":  gs.Shards[i].Deltas,
			"tombstones":      gs.Shards[i].DeadDocs,
			"merge_priority":  gs.Shards[i].MergePriority,
		})
	}
	// Per-endpoint latency, every endpoint with traffic; "latency" keeps
	// the historical shape and still means GET /search specifically.
	endpoints := make(map[string]latencySnapshot, len(s.reqH))
	for name, h := range s.reqH {
		if snap := latencyOf(h); snap.Count > 0 {
			endpoints[name] = snap
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":   s.ix.Shards(),
		"uptime_s": time.Since(s.started).Seconds(),
		"index": map[string]int{
			"docs":              st.Docs,
			"tokens":            st.Tokens,
			"total_positions":   st.TotalPositions,
			"pos_per_doc":       st.PosPerDoc,
			"entries_per_token": st.EntriesPerToken,
			"pos_per_entry":     st.PosPerEntry,
		},
		"per_shard": perShard,
		"latency":   latencyOf(s.reqH["search"]),
		"endpoints": endpoints,
		// Tracing activity: span volume, spans dropped at the per-trace
		// cap, and requests over the -slow-query threshold.
		"telemetry": map[string]uint64{
			"spans_started": s.tracer.Started(),
			"spans_dropped": s.tracer.Dropped(),
			"slow_queries":  s.slowN.Load(),
		},
		"cache": map[string]uint64{
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evictions": cs.Evictions,
			"len":       uint64(cs.Len),
			"cap":       uint64(cs.Cap),
		},
		// Per-shard evaluation counts: one sharded query increments the
		// *_evals counters once per shard.
		"ranked": map[string]uint64{
			"fast_path_evals":    rs.FastPathQueries,
			"exhaustive_evals":   rs.ExhaustiveQueries,
			"candidate_docs":     rs.CandidateDocs,
			"scored_docs":        rs.ScoredDocs,
			"bound_skipped_docs": rs.BoundSkippedDocs,
			"tombstoned_docs":    rs.TombstonedDocs,
			"cursor_seeks":       rs.CursorSeeks,
		},
		// Incremental ingestion state: segment tails and the lazy-merge
		// counters. "rebuilds" stays at its build/load value no matter how
		// many documents are added — that is the segment subsystem's
		// contract. background_* track the off-lock merge worker and
		// forward_lookups the O(document) delete path.
		"segments": map[string]uint64{
			"rebuilds":              gs.Rebuilds,
			"merges":                gs.Merges,
			"segments_merged":       gs.SegmentsMerged,
			"docs_merged":           gs.DocsMerged,
			"background_merges":     gs.BackgroundMerges,
			"inflight_merges":       uint64(gs.InFlightMerges),
			"queued_merges":         uint64(gs.QueuedMerges),
			"merge_workers":         uint64(gs.MergeWorkers),
			"background_aborts":     gs.BackgroundAborts,
			"background_tombstones": gs.BackgroundTombstones,
			"forward_lookups":       gs.ForwardLookups,
		},
		// Durability: log position/activity plus what startup recovery had
		// to replay. "attached" is false (and the section otherwise zero)
		// without -data-dir.
		"wal":           walSection(s.ix.WALStats()),
		"shed_requests": s.shedCount(),
	})
}

// walSection renders WALStats for /stats.
func walSection(ws fulltext.WALStats) map[string]any {
	return map[string]any{
		"attached":             ws.Attached,
		"next_lsn":             ws.NextLSN,
		"durable_lsn":          ws.DurableLSN,
		"appends":              ws.Appends,
		"syncs":                ws.Syncs,
		"group_commits":        ws.GroupCommits,
		"group_commit_records": ws.GroupCommitRecords,
		"segments":             ws.Segments,
		"active_bytes":         ws.ActiveBytes,
		"sync_policy":          ws.SyncPolicy,
		"checkpoints":          ws.Checkpoints,
		"last_checkpoint_lsn":  ws.LastCheckpointLSN,
		"auto_checkpoints":     ws.AutoCheckpoints,
		"auto_checkpoint_err":  ws.AutoCheckpointError,
		"recovery": map[string]any{
			"snapshot_lsn":         ws.Recovery.SnapshotLSN,
			"replayed_records":     ws.Recovery.ReplayedRecords,
			"replayed_adds":        ws.Recovery.ReplayedAdds,
			"replayed_deletes":     ws.Recovery.ReplayedDeletes,
			"replayed_checkpoints": ws.Recovery.ReplayedCheckpoints,
			"skipped_records":      ws.Recovery.SkippedRecords,
			"torn_tail_dropped":    ws.Recovery.TornTailDropped,
			"replay_ms":            float64(ws.Recovery.ReplayDuration.Microseconds()) / 1000,
		},
	}
}

// handleHealthz serves a backward-compatible JSON health body: the
// original status/docs/shards fields are still present (and status is
// still "ok" with a plain 200 when healthy), extended with uptime, what
// startup recovery replayed, and — when objectives are declared — the
// per-objective SLO evaluation. Degraded (burning budget on both
// windows) stays 200 so load balancers keep routing while operators are
// alerted; only an exhausted error budget flips to 503.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ws := s.ix.WALStats()
	body := map[string]any{
		"status":   history.StatusOK,
		"docs":     s.ix.Docs(),
		"shards":   s.ix.Shards(),
		"uptime_s": time.Since(s.started).Seconds(),
		"recovery": map[string]any{
			"wal_attached":     ws.Attached,
			"snapshot_lsn":     ws.Recovery.SnapshotLSN,
			"replayed_records": ws.Recovery.ReplayedRecords,
			"replay_ms":        float64(ws.Recovery.ReplayDuration.Microseconds()) / 1000,
		},
	}
	code := http.StatusOK
	if s.slo != nil {
		rep := s.slo.Evaluate()
		body["status"] = rep.Status
		body["slo"] = rep.Objectives
		if rep.Status == history.StatusExhausted {
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, body)
}

// handleSLO serves the full SLO evaluation: per-objective burn rates,
// budget remaining and status. Without declared objectives it reports ok
// with an empty objective list.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusOK, history.Report{Status: history.StatusOK, Objectives: []history.ObjectiveReport{}})
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Evaluate())
}

// handleMetricsHistory serves windowed rates and quantiles from the
// history store: ?window=5m (default 5m, capped at the retention
// horizon), ?metric=fulltext_http restricts to families with that name
// prefix.
func (s *server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("metric history disabled (-history-interval 0)"))
		return
	}
	d := 5 * time.Minute
	if ws := r.URL.Query().Get("window"); ws != "" {
		var err error
		if d, err = time.ParseDuration(ws); err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad window %q (want a positive duration like 1m, 5m, 1h)", ws))
			return
		}
	}
	writeJSON(w, http.StatusOK, s.hist.Window(d, r.URL.Query().Get("metric")))
}

// handleStatsQueries serves the analytics sketch: the top-n query shapes
// (?n=, default 20) with their Space-Saving counts, overestimate bounds
// and evaluation-cost aggregates.
func (s *server) handleStatsQueries(w http.ResponseWriter, r *http.Request) {
	if s.sketch == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("query analytics disabled (-query-shapes 0)"))
		return
	}
	n := 20
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", ns))
			return
		}
		n = v
	}
	top := s.sketch.Top(n)
	shapes := make([]map[string]any, len(top))
	for i, e := range top {
		avg := 0.0
		if e.Count > 0 {
			avg = float64(e.Latency.Microseconds()) / 1000 / float64(e.Count)
		}
		shapes[i] = map[string]any{
			"shape":          e.Shape,
			"count":          e.Count,
			"err_bound":      e.ErrBound,
			"latency_ms_sum": float64(e.Latency.Microseconds()) / 1000,
			"latency_ms_avg": avg,
			"max_latency_ms": float64(e.MaxLatency.Microseconds()) / 1000,
			"docs_scored":    e.DocsScored,
			"blocks_skipped": e.BlocksSkipped,
			"errors":         e.Errors,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity":  s.sketch.Capacity(),
		"tracked":   s.sketch.Len(),
		"recorded":  s.sketch.Recorded(),
		"evictions": s.sketch.Evictions(),
		"shapes":    shapes,
	})
}

func parseQueryParam(r *http.Request) (*fulltext.Query, error) {
	src := r.URL.Query().Get("q")
	if src == "" {
		return nil, fmt.Errorf("missing query parameter q")
	}
	dialect, err := parseDialect(r.URL.Query().Get("lang"))
	if err != nil {
		return nil, err
	}
	return fulltext.Parse(dialect, src)
}

func parseDialect(s string) (fulltext.Dialect, error) {
	switch strings.ToLower(s) {
	case "bool":
		return fulltext.BOOL, nil
	case "dist":
		return fulltext.DIST, nil
	case "", "comp":
		return fulltext.COMP, nil
	}
	return 0, fmt.Errorf("unknown dialect %q (want bool, dist, or comp)", s)
}

func parseEngine(s string) (fulltext.Engine, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return fulltext.EngineAuto, nil
	case "bool":
		return fulltext.EngineBOOL, nil
	case "ppred":
		return fulltext.EnginePPRED, nil
	case "npred":
		return fulltext.EngineNPRED, nil
	case "comp":
		return fulltext.EngineCOMP, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("ftserve: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftserve:", err)
	os.Exit(1)
}
