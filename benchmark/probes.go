package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"fulltext"
	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/segment"
	"fulltext/internal/shard"
	"fulltext/internal/telemetry"
	"fulltext/internal/text"
	"fulltext/internal/wal"
)

// perLayer is every per-layer metric with its unit. A traced run reports
// all of them; a layer that does no work on the workload, or that the
// workload's traced run does not probe (see README, "Per-layer metrics"),
// reports 0.
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, m := range [][2]string{
		{"lang.parse_us.bool", "us"},
		{"lang.parse_us.dist", "us"},
		{"lang.parse_us.comp", "us"},
		{"lang.classify_us", "us"},
		{"booleval.eval_ms", "ms"},
		{"booleval.eval_ms_p90", "ms"},
		{"booleval.allocs_per_query", "count"},
		{"booleval.results_per_query", "count"},
		{"ppred.eval_ms", "ms"},
		{"ppred.eval_ms_p90", "ms"},
		{"ppred.allocs_per_query", "count"},
		{"ppred.results_per_query", "count"},
		{"npred.eval_ms", "ms"},
		{"npred.eval_ms_p90", "ms"},
		{"npred.allocs_per_query", "count"},
		{"npred.results_per_query", "count"},
		{"compeval.eval_ms", "ms"},
		{"compeval.eval_ms_p90", "ms"},
		{"compeval.allocs_per_query", "count"},
		{"compeval.results_per_query", "count"},
		{"engines.order_ok", "count"},
		{"wand.topk_ms", "ms"},
		{"wand.topk_ms_p99", "ms"},
		{"wand.exhaustive_ms", "ms"},
		{"wand.fastpath_ratio", "ratio"},
		{"wand.docs_scored_per_query", "count"},
		{"wand.scored_to_candidates_ratio", "ratio"},
		{"wand.blocks_skipped_per_query", "count"},
		{"wand.cursor_seeks_per_query", "count"},
		{"wand.allocs_per_query", "count"},
		{"wand.bytes_per_query", "B"},
		{"score.stats_rebuild_ms", "ms"},
		{"invlist.build_s", "s"},
		{"invlist.postings", "count"},
		{"invlist.heap_bytes_per_posting", "B"},
		{"shard.fanout_ratio", "ratio"},
		{"shard.merge_us", "us"},
		{"shard.topk_merge_us", "us"},
		{"shard.cache_get_us", "us"},
		{"shard.cache_hit_ratio", "ratio"},
		{"ftserve.overhead_us", "us"},
		{"ftserve.response_bytes", "B"},
		{"ftserve.shed_total", "count"},
		{"ftserve.search_p95_ms", "ms"},
		{"ftserve.search_p99_ms", "ms"},
		{"ftserve.write_p95_ms", "ms"},
		{"text.analyze_us_per_doc", "us"},
		{"text.tokens_per_doc", "count"},
		{"wal.append_us", "us"},
		{"wal.fsync_wait_ms", "ms"},
		{"wal.fsync_wait_ms_p99", "ms"},
		{"wal.bytes_per_doc_byte", "ratio"},
		{"wal.fsyncs_per_1k_docs", "count"},
		{"wal.group_commit_size", "count"},
		{"segment.build_ms_per_1k_docs", "ms"},
		{"segment.merge_ms", "ms"},
		{"segment.merges_total", "count"},
		{"segment.docs_rewritten_per_doc_added", "ratio"},
		{"segment.bg_aborts_total", "count"},
		{"durable.checkpoint_s", "s"},
		{"durable.checkpoint_mb_per_s", "MB/s"},
		{"durable.open_s", "s"},
		{"durable.replay_docs_per_s", "1/s"},
		{"durable.replayed_records", "count"},
		{"durable.ckpt_stall_ratio", "ratio"},
		{"telemetry.overhead_ratio", "ratio"},
		{"loadgen.late_ms_p99", "ms"},
		{"loadgen.cpu_share", "ratio"},
		{"layers.inproc_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
		{"harness.error_ratio", "ratio"},
	} {
		out = append(out, layerMetric{m[0], m[1], better(m[0])})
	}
	return out
}()

// Sizes of the traced run. Counts, not times, wherever a percentile needs
// a minimum sample.
const (
	replayMax      = 2000 // requests of the stream replayed over HTTP
	replayShare    = 0.20 // ... or this share of --seconds, whichever ends first
	probeShare     = 0.25 // cap on each in-process probe loop, share of --seconds
	engineQuota    = 400  // queries per engine in the classes probe
	compQuota      = 120  // ... except the complete engine: a query costs ~10 ms
	ladderQueries  = 40   // BOOL-NONEG queries run through all four engines
	wandQueries    = 1100 // ranked queries in the wand probe: p99 needs 1000+
	exhaustEvery   = 20   // one wand-probe query in twenty also runs exhaustively
	overheadOps    = 300  // requests of the tracing and telemetry A/B probes
	pacedMin       = 1200 // paced requests behind loadgen.late_ms_p99
	walRecords     = 1100 // records of the wal probe
	segmentDocs    = 1000 // documents per segment.New probe
	segmentReps    = 5
	mergeInputs    = 8 // segments per segment.Merge probe
	stallSteady    = time.Second
	rebuildSamples = 5
)

// samples collects named series.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// allocCounters reads the process's cumulative heap allocations.
func allocCounters() (objects, bytes float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// search runs a request in process on ix with the engine the index picks.
func search(ix *fulltext.ShardedIndex, q *fulltext.Query, o *op, ro fulltext.RankOptions) ([]fulltext.Match, error) {
	if o.Rank == "" {
		return ix.Search(q)
	}
	return ix.SearchRankedOpts(q, model(o.Rank), o.Top, ro)
}

// timed returns f's duration in milliseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e6
}

// runTrace is the traced run of one workload: it replays the head of the
// workload's stream over HTTP with one client, recording spans around the
// round trip and around the in-process calls for the same request, then
// probes the layers the workload stresses through their public functions.
func runTrace(cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Info: map[string]float64{}}
	unit := map[string]string{}
	for _, m := range perLayer {
		res.set(m.Name, 0, m.Unit)
		unit[m.Name] = m.Unit
	}
	set := func(name string, v float64) {
		if _, ok := unit[name]; !ok {
			panic("metric not in perLayer: " + name)
		}
		res.set(name, v, unit[name])
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.Root, "benchmark", "out"), "trace-"+cfg.Workload.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, res: res, dir: dir}
	tr := newTracer()
	defer b.stop()
	w := cfg.Workload

	if err := b.setup(); err != nil {
		return nil, err
	}
	set("invlist.build_s", b.buildS)
	set("invlist.postings", float64(b.postings))
	set("invlist.heap_bytes_per_posting", b.heapPerPosting)
	set("durable.checkpoint_s", b.ckptS)
	set("durable.checkpoint_mb_per_s", float64(b.snapshotBytes)/1e6/b.ckptS)
	if err := b.start(); err != nil {
		return nil, err
	}
	b.gen.decode = true
	warm := w.Reads(cfg.Seed)
	if _, err := b.gen.runPhase([]lane{{Workers: 2, Next: fromStream(warm)}}, b.secs(warmShare)); err != nil {
		return nil, err
	}
	before, err := b.srv.stats()
	if err != nil {
		return nil, err
	}

	// Replay: one client, one request at a time. The in-process mirror is
	// the two-shard index with the server's cache size.
	sm := samples{}
	head := w.Reads(cfg.Seed).take(replayMax)
	mirror := b.oracle.ix
	mirror.SetQueryCacheSize(256)
	client := b.gen.clients[0]
	deadline := time.Now().Add(b.secs(replayShare))
	replayed := 0
	for i := range head {
		if time.Now().After(deadline) {
			break
		}
		o := &head[i]
		root := tr.begin("request", -1, i)
		sp := tr.begin("ftserve.http", root, i)
		var ok bool
		var body searchReply
		var n int64
		rtt := timed(func() { ok, body, n = b.gen.send(client, o, true) })
		tr.end(sp)
		res.Attempted++
		if !ok {
			res.Failed++
			tr.end(root)
			continue
		}
		replayed++
		sm.add("rtt", rtt)
		sm.add("took", body.TookMS)
		sm.add("overhead_us", (rtt-body.TookMS)*1000)
		sm.add("bytes", float64(n))
		var q *fulltext.Query
		sp = tr.begin("lang.parse", root, i)
		parse := timed(func() { q, err = parseOp(o) })
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sm.add("parse."+o.Dialect, parse*1000)
		sp = tr.begin("lang.classify", root, i)
		sm.add("classify", 1000*timed(func() { fulltext.Classify(q) }))
		tr.end(sp)
		sp = tr.begin("inproc.search", root, i)
		sm.add("mirror", timed(func() { _, err = search(mirror, q, o, fulltext.RankOptions{}) }))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.end(root)
	}
	mirror.SetQueryCacheSize(0)
	if replayed == 0 {
		return nil, fmt.Errorf("replay: no request succeeded")
	}
	after, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	for _, d := range []string{"bool", "dist", "comp"} {
		set("lang.parse_us."+d, median(sm["parse."+d]))
	}
	set("lang.classify_us", median(sm["classify"]))
	set("ftserve.overhead_us", median(sm["overhead_us"]))
	set("ftserve.response_bytes", median(sm["bytes"]))
	set("shard.cache_hit_ratio", hitRatio(before, after))
	set("layers.inproc_ratio", median(sm["mirror"])/median(sm["took"]))
	if r := res.Metrics["layers.inproc_ratio"].Value; r < 0.8 || r > 1.2 {
		res.Notes = append(res.Notes, fmt.Sprintf("layers.inproc_ratio %.2f is outside 0.8-1.2: in-process times do not stand for the server's on this workload", r))
	}
	res.Info["replayed"] = float64(replayed)

	// Tracing overhead: the same requests, spans off and then on.
	var off, on []float64
	for i := 0; i < min(overheadOps, replayed); i++ {
		off = append(off, timed(func() { b.gen.send(client, &head[i], true) }))
	}
	scratch := newTracer()
	for i := 0; i < min(overheadOps, replayed); i++ {
		sp := scratch.begin("ftserve.http", -1, i)
		on = append(on, timed(func() { b.gen.send(client, &head[i], true) }))
		scratch.end(sp)
	}
	set("trace.overhead_ratio", median(on)/median(off))

	if w.Mixed {
		if err := b.traceWrites(set, head); err != nil {
			return nil, err
		}
	} else {
		if err := b.traceReads(set, head); err != nil {
			return nil, err
		}
	}
	set("harness.error_ratio", float64(res.Failed)/float64(res.Attempted))

	if err := tr.writeJSONL(filepath.Join(cfg.Root, "benchmark", "out", "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	fmt.Printf("self time per layer over %d replayed requests:\n", replayed)
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-16s %10.3f ms\n", name, float64(self[name])/1e6)
	}
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0
	return res, nil
}

// pacedProbe runs the workload's paced read lane (beside extra lanes) long
// enough for a p99 of generator lateness, and reports lateness and the
// generator's share of the CPU time both processes used.
func (b *bench) pacedProbe(set func(string, float64), extra ...lane) ([]*laneResult, error) {
	w := b.cfg.Workload
	n, count := 0, max(pacedMin, int(2*w.SearchRate)) // at least two seconds' worth
	if b.cfg.Quick {
		count = int(w.SearchRate)
	}
	// The workload's own stream, past the requests the warm-up and the
	// replay have sent: new queries where they are unique, the same 64 on
	// hot.
	reads := w.Reads(b.cfg.Seed)
	reads.take(replayMax)
	workers := len(b.gen.clients)
	for _, l := range extra {
		workers -= l.Workers
	}
	lanes := append([]lane{{Workers: workers, Rate: w.SearchRate, Primary: true,
		Next: func() (op, bool) { n++; return reads.next(), n <= count }}}, extra...)
	b.gen.decode = false
	selfBefore, srvBefore := cpuSeconds(os.Getpid()), cpuSeconds(b.srv.cmd.Process.Pid)
	lr, err := b.gen.runPhase(lanes, 0)
	if err != nil {
		return nil, err
	}
	self, srv := cpuSeconds(os.Getpid())-selfBefore, cpuSeconds(b.srv.cmd.Process.Pid)-srvBefore
	for _, r := range lr {
		b.res.count(r)
	}
	if late, err := percentile(lr[0].LateMS, 0.99); err == nil {
		set("loadgen.late_ms_p99", late)
	} else {
		b.res.Notes = append(b.res.Notes, fmt.Sprintf("loadgen.late_ms_p99: %v (the generator was rarely idle before a request was due)", err))
	}
	if self+srv > 0 {
		set("loadgen.cpu_share", self/(self+srv))
	}
	b.checkPaced("paced reads", lr[0], w.SearchRate)
	// The tails the end-to-end run does not bound, from due time.
	set("ftserve.search_p95_ms", b.pct("ftserve.search_p95_ms", lr[0].LatMS, 0.95))
	set("ftserve.search_p99_ms", b.pct("ftserve.search_p99_ms", lr[0].LatMS, 0.99))
	if len(lr) > 1 {
		set("ftserve.write_p95_ms", b.pct("ftserve.write_p95_ms", lr[1].LatMS, 0.95))
	}
	return lr, nil
}

// traceReads probes the read path: the engines on classes, WAND on ranked,
// the serving layers on hot.
func (b *bench) traceReads(set func(string, float64), head []op) error {
	if _, err := b.pacedProbe(set); err != nil {
		return err
	}
	st, err := b.srv.stats()
	if err != nil {
		return err
	}
	set("ftserve.shed_total", float64(st.Shed))
	// The server has done its part; the probes get the machine.
	b.stop()
	b.srv, b.gen = nil, nil

	switch b.cfg.Workload.Name {
	case "hot":
		b.probeShard(set)
		return b.probeTelemetry(set, head)
	}
	// Engines and ranking are probed on a one-shard index without a cache,
	// so that neither fan-out nor a hit stands between the call and the
	// engine.
	sb := fulltext.NewShardedBuilder(1)
	for _, d := range genDocs(b.cfg.Seed, 0, b.cfg.Docs) {
		if err := sb.Add(d.ID, d.Body); err != nil {
			return err
		}
	}
	one := sb.Build()
	one.SetQueryCacheSize(0)
	var t1, t2 []float64
	for i := 0; i < min(overheadOps, len(head)); i++ {
		o := &head[i]
		q, err := parseOp(o)
		if err != nil {
			return err
		}
		t1 = append(t1, timed(func() { _, err = search(one, q, o, fulltext.RankOptions{}) }))
		if err != nil {
			return err
		}
		t2 = append(t2, timed(func() { _, err = search(b.oracle.ix, q, o, fulltext.RankOptions{}) }))
		if err != nil {
			return err
		}
	}
	set("shard.fanout_ratio", median(t2)/median(t1))
	if b.cfg.Workload.Name == "ranked" {
		return b.probeWand(set, one)
	}
	return b.probeEngines(set, one)
}

// probeEngines forces each class's queries through its engine, and a set
// of BOOL-NONEG queries, which every engine accepts, through all four.
func (b *bench) probeEngines(set func(string, float64), one *fulltext.ShardedIndex) error {
	engines := []struct {
		class, module string
		engine        fulltext.Engine
		quota         int
	}{
		{"bool", "booleval", fulltext.EngineBOOL, engineQuota},
		{"ppred", "ppred", fulltext.EnginePPRED, engineQuota},
		{"npred", "npred", fulltext.EngineNPRED, engineQuota},
		{"comp", "compeval", fulltext.EngineCOMP, compQuota},
	}
	byClass := map[string][]op{}
	stream := classesStream(b.cfg.Seed ^ 0xE61E)
	for need := len(engines); need > 0; {
		o := stream.next()
		for _, e := range engines {
			if e.class == o.Class && len(byClass[o.Class]) < e.quota {
				byClass[o.Class] = append(byClass[o.Class], o)
				if len(byClass[o.Class]) == e.quota {
					need--
				}
			}
		}
	}
	for _, e := range engines {
		var ms, allocs, results []float64
		deadline := time.Now().Add(b.secs(probeShare))
		for i := range byClass[e.class] {
			if time.Now().After(deadline) {
				break
			}
			q, err := parseOp(&byClass[e.class][i])
			if err != nil {
				return err
			}
			var m []fulltext.Match
			a0, _ := allocCounters()
			d := timed(func() { m, err = one.SearchWith(q, e.engine) })
			a1, _ := allocCounters()
			if err != nil {
				return fmt.Errorf("%s engine on %q: %w", e.module, byClass[e.class][i].Query, err)
			}
			ms, allocs, results = append(ms, d), append(allocs, a1-a0), append(results, float64(len(m)))
		}
		set(e.module+".eval_ms", median(ms))
		set(e.module+".eval_ms_p90", b.pct(e.module+".eval_ms_p90", ms, 0.90))
		set(e.module+".allocs_per_query", median(allocs))
		set(e.module+".results_per_query", mean(results))
	}
	// The paper's cost order on one and the same query.
	ladder := samples{}
	n := 0
	for i := range byClass["bool"] {
		q, err := parseOp(&byClass["bool"][i])
		if err != nil {
			return err
		}
		if fulltext.Classify(q) != fulltext.ClassBoolNoNeg {
			continue
		}
		for _, e := range engines {
			d := timed(func() { _, err = one.SearchWith(q, e.engine) })
			if err != nil {
				b.res.Notes = append(b.res.Notes, fmt.Sprintf("engines.order_ok: %s engine rejects BOOL-NONEG query %q: %v", e.module, byClass["bool"][i].Query, err))
				return nil
			}
			ladder.add(e.module, d)
		}
		if n++; n == ladderQueries {
			break
		}
	}
	okOrder := 1.0
	for i := 1; i < len(engines); i++ {
		lo, hi := median(ladder[engines[i-1].module]), median(ladder[engines[i].module])
		if lo > hi {
			okOrder = 0
			b.res.Notes = append(b.res.Notes, fmt.Sprintf("engines.order_ok: finding: %s (%.3f ms) is slower than %s (%.3f ms) on the same BOOL-NONEG queries",
				engines[i-1].module, lo, engines[i].module, hi))
		}
	}
	set("engines.order_ok", okOrder)
	return nil
}

// probeWand runs ranked queries with an evaluation recorder, and one in
// exhaustEvery of them exhaustively as well.
func (b *bench) probeWand(set func(string, float64), one *fulltext.ShardedIndex) error {
	stream := rankedStream(b.cfg.Seed ^ 0x3A4D)
	sm := samples{}
	var fast, evals float64
	deadline := time.Now().Add(2 * b.secs(probeShare))
	for i := 0; i < wandQueries && time.Now().Before(deadline); i++ {
		o := stream.next()
		q, err := parseOp(&o)
		if err != nil {
			return err
		}
		var rec fulltext.EvalRecorder
		a0, b0 := allocCounters()
		d := timed(func() { _, err = search(one, q, &o, fulltext.RankOptions{Recorder: &rec}) })
		a1, b1 := allocCounters()
		if err != nil {
			return err
		}
		st := rec.Stats()
		sm.add("ms", d)
		sm.add("allocs", a1-a0)
		sm.add("bytes", b1-b0)
		sm.add("seeks", float64(st.CursorSeeks))
		sm.add("blocks", float64(st.BlocksSkipped))
		fast += float64(st.FastPathQueries)
		evals += float64(st.FastPathQueries + st.ExhaustiveQueries)
		if st.FastPathQueries > 0 {
			sm.add("scored", float64(st.ScoredDocs))
			sm.add("candidates", float64(st.CandidateDocs))
		}
		if i%exhaustEvery == 0 {
			sm.add("exhaustive", timed(func() { _, err = search(one, q, &o, fulltext.RankOptions{Exhaustive: true}) }))
			if err != nil {
				return err
			}
		}
	}
	set("wand.topk_ms", median(sm["ms"]))
	set("wand.topk_ms_p99", b.pct("wand.topk_ms_p99", sm["ms"], 0.99))
	set("wand.exhaustive_ms", median(sm["exhaustive"]))
	set("wand.fastpath_ratio", fast/evals)
	set("wand.docs_scored_per_query", mean(sm["scored"]))
	set("wand.scored_to_candidates_ratio", mean(sm["scored"])/mean(sm["candidates"]))
	set("wand.blocks_skipped_per_query", mean(sm["blocks"]))
	set("wand.cursor_seeks_per_query", mean(sm["seeks"]))
	set("wand.allocs_per_query", median(sm["allocs"]))
	set("wand.bytes_per_query", median(sm["bytes"]))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perCallUS times f in batches of 100 calls and returns the median
// microseconds per call.
func perCallUS(f func()) float64 {
	var us []float64
	for rep := 0; rep < 50; rep++ {
		us = append(us, 10*timed(func() {
			for i := 0; i < 100; i++ {
				f()
			}
		}))
	}
	return median(us)
}

// probeShard times the merge and cache primitives of internal/shard on
// inputs of the workload's shape: two shards, a few hundred results.
func (b *bench) probeShard(set func(string, float64)) {
	lists := make([][]shard.Doc, 2)
	for i := 0; i < 1000; i++ {
		lists[i%2] = append(lists[i%2], shard.Doc{Ord: i, ID: docID(i), Score: float64(i%97) / 97})
	}
	set("shard.merge_us", perCallUS(func() { shard.MergeByOrd(lists) }))
	set("shard.topk_merge_us", perCallUS(func() { shard.MergeTopK(lists, 10) }))
	c := shard.NewCache(256)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("g1|rank|0|10|%d", i)
		c.Put(keys[i], lists[0][:10])
	}
	i := 0
	set("shard.cache_get_us", perCallUS(func() { c.Get(keys[i%256]); i++ }))
}

// probeTelemetry runs the same requests with the index's instruments
// attached and detached, alternating, and reports the ratio of medians.
func (b *bench) probeTelemetry(set func(string, float64), head []op) error {
	ix := b.oracle.ix
	ix.EnableTelemetry(telemetry.New())
	defer ix.SetTelemetryEnabled(false)
	var on, off []float64
	for i := 0; i < min(overheadOps, len(head)); i++ {
		q, err := parseOp(&head[i])
		if err != nil {
			return err
		}
		for _, enabled := range []bool{true, false} {
			ix.SetTelemetryEnabled(enabled)
			d := timed(func() { _, err = search(ix, q, &head[i], fulltext.RankOptions{}) })
			if err != nil {
				return err
			}
			if enabled {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	set("telemetry.overhead_ratio", median(on)/median(off))
	return nil
}

// traceWrites probes the write path: a bulk load and paced writes beside
// paced reads on the server for its own counters, then text, wal, segment
// and durable through their functions.
func (b *bench) traceWrites(set func(string, float64), head []op) error {
	before, err := b.srv.stats()
	if err != nil {
		return err
	}
	// A third of the end-to-end run's bulk load, the same paced writes.
	nLoad := b.loadDocs() / 3 / loadBatch * loadBatch
	loadOps := writeOps(b.extra[:nLoad], loadBatch, false)
	pacedOps := writeOps(b.extra[b.loadDocs():], pacedBatch, true)
	lr, err := b.gen.runPhase([]lane{{Workers: 2, Next: fromOps(loadOps), Primary: true}}, 0)
	if err != nil {
		return err
	}
	b.res.count(lr[0])
	acked := lr[0].Acked
	lr, err = b.pacedProbe(set, lane{Workers: 1, Rate: b.cfg.Workload.WriteRate, Next: fromOps(pacedOps)})
	if err != nil {
		return err
	}
	acked = append(acked, lr[1].Acked...)
	after, err := b.srv.stats()
	if err != nil {
		return err
	}
	docs, rawBytes := 0.0, 0.0
	for _, o := range acked {
		docs += float64(len(o.Docs))
		for _, d := range o.Docs {
			rawBytes += float64(len(d.Body))
		}
	}
	set("ftserve.shed_total", float64(after.Shed))
	set("wal.fsyncs_per_1k_docs", float64(after.WAL.Syncs-before.WAL.Syncs)/docs*1000)
	set("wal.group_commit_size", float64(after.WAL.GroupCommitRecords-before.WAL.GroupCommitRecords)/
		float64(max(after.WAL.GroupCommits-before.WAL.GroupCommits, 1)))
	set("segment.merges_total", float64(after.Segments.Merges-before.Segments.Merges))
	set("segment.docs_rewritten_per_doc_added", float64(after.Segments.DocsMerged-before.Segments.DocsMerged)/docs)
	set("segment.bg_aborts_total", float64(after.Segments.Aborts-before.Segments.Aborts))
	b.stop()
	b.srv, b.gen = nil, nil

	// text: what the server does to a document body before indexing it.
	an := &text.Analyzer{}
	tokens := 0
	textMS := timed(func() {
		for _, d := range b.extra {
			toks, pos := core.Tokenize(d.Body)
			toks, _ = an.Apply(toks, pos)
			tokens += len(toks)
		}
	})
	set("text.analyze_us_per_doc", textMS*1000/float64(len(b.extra)))
	set("text.tokens_per_doc", float64(tokens)/float64(len(b.extra)))

	if err := b.probeWAL(set); err != nil {
		return err
	}
	if err := b.probeSegment(set); err != nil {
		return err
	}
	return b.probeDurable(set, len(acked))
}

// probeWAL appends paced-batch-sized records to a log of its own under
// the server's sync policy, timing the append and the wait for the fsync
// apart.
func (b *bench) probeWAL(set func(string, float64)) error {
	l, _, err := wal.Open(filepath.Join(b.dir, "walprobe"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var appendUS, waitMS []float64
	raw := 0
	for i := 0; i < walRecords; i++ {
		batch := make([]wal.Doc, pacedBatch)
		for k := range batch {
			d := b.extra[(i*pacedBatch+k)%len(b.extra)]
			batch[k] = wal.Doc{ID: d.ID, Body: d.Body}
			raw += len(d.Body)
		}
		payload := wal.EncodeAddBatch(batch)
		var lsn uint64
		appendUS = append(appendUS, 1000*timed(func() { lsn, err = l.AppendAsync(wal.TypeAddBatch, payload) }))
		if err != nil {
			return err
		}
		waitMS = append(waitMS, timed(func() { err = l.WaitDurable(lsn) }))
		if err != nil {
			return err
		}
	}
	_, logBytes := l.Position()
	if err := l.Close(); err != nil {
		return err
	}
	set("wal.append_us", median(appendUS))
	set("wal.fsync_wait_ms", median(waitMS))
	set("wal.fsync_wait_ms_p99", b.pct("wal.fsync_wait_ms_p99", waitMS, 0.99))
	set("wal.bytes_per_doc_byte", float64(logBytes)/float64(raw))
	return nil
}

// probeSegment times building a segment from documents and merging small
// segments into one.
func (b *bench) probeSegment(set func(string, float64)) error {
	build := func(docs []doc, firstOrd int) (*segment.Segment, error) {
		c := core.NewCorpus()
		ids, ords := make([]string, len(docs)), make([]int, len(docs))
		for i, d := range docs {
			toks, pos := core.Tokenize(d.Body)
			if _, err := c.AddTokens(d.ID, toks, pos); err != nil {
				return nil, err
			}
			ids[i], ords[i] = d.ID, firstOrd+i
		}
		return segment.New(invlist.Build(c), ids, ords)
	}
	var buildMS, mergeMS []float64
	for rep := 0; rep < segmentReps; rep++ {
		docs := b.extra[rep*segmentDocs%(len(b.extra)-segmentDocs):][:segmentDocs]
		var err error
		buildMS = append(buildMS, timed(func() { _, err = build(docs, 0) }))
		if err != nil {
			return err
		}
		parts := make([]*segment.Segment, mergeInputs)
		per := segmentDocs / mergeInputs
		for i := range parts {
			if parts[i], err = build(docs[i*per:][:per], i*per); err != nil {
				return err
			}
		}
		mergeMS = append(mergeMS, timed(func() { _, err = segment.Merge(parts) }))
		if err != nil {
			return err
		}
	}
	set("segment.build_ms_per_1k_docs", median(buildMS)*1000/segmentDocs)
	set("segment.merge_ms", median(mergeMS))
	return nil
}

// probeDurable takes over the killed server's data directory: it times
// the recovery, then writes in a closed loop through one checkpoint and
// compares the write latency inside the checkpoint with the latency
// outside, and times the first ranked query after a write.
func (b *bench) probeDurable(set func(string, float64), ackedRecords int) error {
	var ix *fulltext.ShardedIndex
	var err error
	set("durable.open_s", timed(func() {
		ix, err = fulltext.OpenDurable(b.dataDir, fulltext.DurableOptions{Shards: 2, Sync: wal.SyncAlways})
	})/1000)
	if err != nil {
		return err
	}
	defer ix.Close()
	rec := ix.WALStats().Recovery
	set("durable.replayed_records", float64(rec.ReplayedRecords))
	set("durable.replay_docs_per_s", float64(rec.ReplayedAdds)/rec.ReplayDuration.Seconds())
	// The log holds the barrier record of the set-up checkpoint and, with
	// the auto-checkpoint policy off, one record per acknowledged write.
	if int(rec.ReplayedRecords) != ackedRecords+1 {
		b.res.Failed++
		b.res.Notes = append(b.res.Notes, fmt.Sprintf("durable: replayed %d records, want the checkpoint barrier and %d acknowledged writes", rec.ReplayedRecords, ackedRecords))
	}

	fresh := genDocs(b.cfg.Seed, b.cfg.Docs+len(b.extra), 20000)
	type sample struct {
		at time.Time
		ms float64
	}
	var lat []sample
	var mu sync.Mutex
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			batch := make([]fulltext.Document, pacedBatch)
			for k := range batch {
				d := fresh[(i*pacedBatch+k)%len(fresh)]
				batch[k] = fulltext.Document{ID: fmt.Sprintf("%s-%d", d.ID, i), Body: d.Body}
			}
			t0 := time.Now()
			if err := ix.AddBatch(batch); err != nil {
				done <- err
				return
			}
			mu.Lock()
			lat = append(lat, sample{t0, float64(time.Since(t0)) / 1e6})
			mu.Unlock()
		}
	}()
	time.Sleep(stallSteady)
	from := time.Now()
	_, ckErr := ix.Checkpoint("")
	to := time.Now()
	close(stop)
	if err := <-done; err != nil {
		return err
	}
	if ckErr != nil {
		return ckErr
	}
	var in, out []float64
	for _, s := range lat {
		if s.at.After(from) && s.at.Before(to) {
			in = append(in, s.ms)
		} else {
			out = append(out, s.ms)
		}
	}
	// p95: neither window holds the thousand samples a p99 would need.
	if len(in) == 0 || len(out) == 0 {
		b.res.Notes = append(b.res.Notes, "durable.ckpt_stall_ratio: no write fell inside (or outside) the checkpoint")
	} else {
		set("durable.ckpt_stall_ratio", b.pct("durable.ckpt_stall_ratio (inside)", in, 0.95)/b.pct("durable.ckpt_stall_ratio (outside)", out, 0.95))
	}

	q := fulltext.MustParse(fulltext.BOOL, "'w100' OR 'w200'")
	var rebuild []float64
	for i := 0; i < rebuildSamples; i++ {
		d := fresh[i]
		if err := ix.AddBatch([]fulltext.Document{{ID: fmt.Sprintf("%s-r%d", d.ID, i), Body: d.Body}}); err != nil {
			return err
		}
		rebuild = append(rebuild, timed(func() { _, err = ix.SearchRanked(q, fulltext.TFIDF, 10) }))
		if err != nil {
			return err
		}
	}
	set("score.stats_rebuild_ms", median(rebuild))
	return nil
}
