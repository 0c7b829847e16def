package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fulltext"
	"fulltext/internal/wal"
)

// config is one invocation's input.
type config struct {
	Workload *workload
	Seed     uint64
	Seconds  float64
	Trace    bool
	Quick    bool // smoke test: percentiles are read off whatever sample there is
	Docs     int
	Root     string // repository checkout
	Bin      string // built ftserve
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Invalid lists the reasons the run's numbers must not be used.
	Invalid []string `json:"invalid,omitempty"`
	// Notes are findings that do not invalidate the run.
	Notes []string `json:"notes,omitempty"`
	// Info holds counts that explain the run but are not metrics.
	Info map[string]float64 `json:"info,omitempty"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) invalid(format string, a ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, a...))
}

// count adds a lane's requests to the run's totals.
func (r *result) count(lr *laneResult) {
	r.Attempted += lr.Attempted
	r.Failed += lr.Failed
}

// bench is the state of one run: the in-process index, the server and the
// generator.
type bench struct {
	cfg     config
	res     *result
	dir     string // scratch directory of the run, removed at the end
	dataDir string
	oracle  *oracle
	extra   []doc // documents the write phases ingest
	srv     *server
	gen     *generator

	rawBytes, snapshotBytes int64
	buildS, ckptS           float64
	heapPerPosting          float64
	postings                int
}

func (b *bench) secs(share float64) time.Duration {
	return time.Duration(share * b.cfg.Seconds * float64(time.Second))
}

// loadDocs is the bulk-load size of the run.
func (b *bench) loadDocs() int {
	return int(loadDocsPerSecond*b.cfg.Seconds) / loadBatch * loadBatch
}

// pacedWrites is the number of paced write requests of the run.
func (b *bench) pacedWrites() int {
	share := writeShare
	if b.cfg.Workload.Mixed {
		share = mixedShare
	}
	return int(b.cfg.Workload.WriteRate * share * b.cfg.Seconds)
}

// setup generates the corpus, builds the two-shard index, writes it as
// the durable snapshot the server recovers from, and generates the
// documents of the write phases.
func (b *bench) setup() error {
	t0 := time.Now()
	docs := genDocs(b.cfg.Seed, 0, b.cfg.Docs)
	for _, d := range docs {
		b.rawBytes += int64(len(d.Body))
	}
	sb := fulltext.NewShardedBuilder(2)
	for _, d := range docs {
		if err := sb.Add(d.ID, d.Body); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	if b.cfg.Trace {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	b.res.Info["setup_corpus_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	ix := sb.Build()
	b.buildS = time.Since(t0).Seconds()
	b.postings = ix.Stats().TotalPositions
	if b.cfg.Trace {
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.heapPerPosting = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(b.postings)
	}
	ix.SetQueryCacheSize(0)
	b.oracle = &oracle{ix: ix, docs: b.cfg.Docs, memo: map[string][]fulltext.Match{}}

	// A snapshot needs a log position: attach an empty log, checkpoint,
	// close. ftserve -data-dir then recovers from exactly this state.
	b.dataDir = filepath.Join(b.dir, "data")
	if err := os.MkdirAll(b.dataDir, 0o755); err != nil {
		return err
	}
	l, _, err := wal.Open(filepath.Join(b.dataDir, "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	ix.AttachWAL(l)
	ck, err := ix.Checkpoint(b.dataDir)
	if err != nil {
		return err
	}
	b.snapshotBytes, b.ckptS = ck.SnapshotBytes, ck.Duration.Seconds()
	if err := l.Close(); err != nil {
		return err
	}
	ix.AttachWAL(nil)

	need := b.loadDocs() + b.pacedWrites()*pacedBatch
	b.extra = genDocs(b.cfg.Seed, b.cfg.Docs, need)
	return nil
}

// start launches the server on the run's data directory.
func (b *bench) start() error {
	// The traced run leaves the policy off, so that what its recovery
	// replays is exactly what was acknowledged.
	ckpt := 0
	if b.cfg.Workload.Mixed && !b.cfg.Trace {
		ckpt = autoCkptRecords
	}
	srv, err := startServer(b.cfg.Bin, b.dataDir, ckpt)
	if err != nil {
		return err
	}
	b.srv = srv
	b.gen = newGenerator(srv.base)
	return nil
}

func (b *bench) stop() {
	if b.gen != nil {
		b.gen.close()
	}
	if b.srv != nil {
		b.srv.kill()
	}
}

// pct reports a percentile of a lane, marking the run invalid when the
// sample cannot support it.
func (b *bench) pct(name string, xs []float64, p float64) float64 {
	beyond := minBeyond
	if b.cfg.Quick {
		beyond = 0
	}
	v, err := percentileBeyond(xs, p, beyond)
	if err != nil {
		b.res.invalid("%s: %v", name, err)
	}
	return v
}

// checkPaced applies the generator's validity limits to a paced lane.
func (b *bench) checkPaced(what string, lr *laneResult, rate float64) {
	limit := max(maxLateShare/rate*1000, float64(minLateLimit)/1e6)
	// Too few idle waits for a p99 means the backlog rule decides.
	if late, err := percentile(lr.LateMS, 0.99); err == nil && late > limit {
		b.res.invalid("%s: generator ran %.3f ms late at p99, limit %.3f ms", what, late, limit)
	}
	if g := lr.backlogGrowth(); g > maxBacklogGrowth*rate {
		b.res.invalid("%s: backlog grew by %.0f requests through the phase, limit %.0f", what, g, maxBacklogGrowth*rate)
	}
}

// runE2E measures the end-to-end metrics of one workload.
func runE2E(cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Info: map[string]float64{}}
	dir, err := os.MkdirTemp(filepath.Join(cfg.Root, "benchmark", "out"), "run-"+cfg.Workload.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, res: res, dir: dir}
	defer b.stop()
	w := cfg.Workload
	reads := w.Reads(cfg.Seed)

	setupStart := time.Now()
	if err := b.setup(); err != nil {
		return nil, err
	}
	startAt := time.Now()
	if err := b.start(); err != nil {
		return nil, err
	}
	res.Info["setup_build_s"], res.Info["setup_checkpoint_s"] = b.buildS, b.ckptS
	res.Info["setup_start_s"] = time.Since(startAt).Seconds()
	if _, err := b.gen.runPhase([]lane{{Workers: 2, Next: fromStream(reads)}}, b.secs(warmShare)); err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(setupStart).Seconds(), "s")
	res.set("space_amp", float64(b.snapshotBytes)/float64(b.rawBytes), "ratio")

	before, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	loadOps := writeOps(b.extra[:b.loadDocs()], loadBatch, false)
	pacedOps := writeOps(b.extra[b.loadDocs():], pacedBatch, true)

	// phase runs lanes and adds their requests to the run's totals.
	phase := func(dur time.Duration, lanes ...lane) ([]*laneResult, error) {
		lr, err := b.gen.runPhase(lanes, dur)
		for _, r := range lr {
			res.count(r)
		}
		return lr, err
	}
	reader := func(workers int, rate float64) lane {
		return lane{Workers: workers, Rate: rate, Next: fromStream(reads)}
	}
	writer := func(workers int, rate float64, ops []op) lane {
		return lane{Workers: workers, Rate: rate, Next: fromOps(ops), Primary: true}
	}
	lr, err := phase(b.secs(closedShare), reader(2, 0))
	if err != nil {
		return nil, err
	}
	closedRead := lr[0]
	var pacedRead, pacedWrite *laneResult
	if !w.Mixed {
		if lr, err = phase(b.secs(pacedShare), reader(2, w.SearchRate)); err != nil {
			return nil, err
		}
		pacedRead = lr[0]
	}
	mid, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	if lr, err = phase(0, writer(2, 0, loadOps)); err != nil {
		return nil, err
	}
	load := lr[0]
	if err := b.srv.settle(); err != nil {
		return nil, err
	}
	loaded, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	if !w.Mixed {
		if lr, err = phase(0, writer(1, w.WriteRate, pacedOps)); err != nil {
			return nil, err
		}
		pacedWrite = lr[0]
	} else {
		if lr, err = phase(0, writer(1, w.WriteRate, pacedOps), reader(1, w.SearchRate)); err != nil {
			return nil, err
		}
		pacedWrite, pacedRead = lr[0], lr[1]
	}
	after, err := b.srv.stats()
	if err != nil {
		return nil, err
	}

	res.set("search_qps", closedRead.throughput(), "1/s")
	res.set("search_p50_ms", median(pacedRead.LatMS), "ms")
	res.set("write_docs_per_s", load.throughput(), "1/s")
	res.set("write_p50_ms", median(pacedWrite.LatMS), "ms")
	b.checkPaced("paced reads", pacedRead, w.SearchRate)
	b.checkPaced("paced writes", pacedWrite, w.WriteRate)
	if peak := b.gen.conns.peak.Load(); peak > int64(runtime.NumCPU()) {
		res.invalid("generator held %d connections, nproc is %d", peak, runtime.NumCPU())
	}
	// Tails, for the record: shown and written to -out, not bounded. One
	// the sample cannot support (ten samples beyond it) is left out.
	for _, p := range []float64{0.90, 0.95, 0.99} {
		if v, err := percentile(pacedRead.LatMS, p); err == nil {
			res.Info[fmt.Sprintf("search_p%.0f_ms", p*100)] = v
		}
		if v, err := percentile(pacedWrite.LatMS, p); err == nil {
			res.Info[fmt.Sprintf("write_p%.0f_ms", p*100)] = v
		}
	}
	if late, err := percentile(pacedRead.LateMS, 0.99); err == nil {
		res.Info["search_late_ms_p99"] = late
	}
	res.Info["search_samples"] = float64(len(pacedRead.LatMS))
	res.Info["write_samples"] = float64(len(pacedWrite.LatMS))
	res.Info["closed_searches"] = float64(len(closedRead.LatMS))
	res.Info["load_s"] = load.Elapsed.Seconds()
	res.Info["cache_hit_ratio"] = hitRatio(before, mid)
	res.Info["ranked_evals"] = float64(mid.Ranked.FastPath + mid.Ranked.Exhaustive - before.Ranked.FastPath - before.Ranked.Exhaustive)
	res.Info["merges"] = float64(after.Segments.Merges - before.Segments.Merges)
	res.Info["paced_checkpoints"] = float64(after.WAL.Checkpoints - loaded.WAL.Checkpoints)
	res.Info["paced_background_merges"] = float64(after.Segments.Background - loaded.Segments.Background)
	res.Info["shed"] = float64(after.Shed)
	if after.WAL.AutoCheckpointErr != "" {
		res.invalid("auto checkpoint failed: %s", after.WAL.AutoCheckpointErr)
	}

	rec, err := b.recover(append(load.Acked, pacedWrite.Acked...))
	if err != nil {
		return nil, err
	}
	res.set("recovery_s", rec, "s")

	// The oracle runs last, with the machine to itself. Replies given
	// beside the paced writes are compared on the snapshot's documents.
	res.Failed += b.checkSamples(closedRead.Sampled, false)
	res.Failed += b.checkSamples(pacedRead.Sampled, w.Mixed)
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0
	return res, nil
}

// checkSamples compares sampled replies with the oracle and returns the
// number that differ. An in-process answer costs as much as ten served
// ones: a phase can afford oracleMax of them, spread evenly over the
// distinct requests sampled. A repeated request is answered from the
// oracle's memo, so hot, with its 64 queries, has every sample checked.
func (b *bench) checkSamples(samples []reply, mutated bool) (mismatches int) {
	t0 := time.Now()
	distinct := map[string]bool{}
	for i := range samples {
		distinct[samples[i].Op.key()] = true
	}
	step, fresh := max(len(distinct)/oracleMax, 1), 0
	for i := range samples {
		if _, known := b.oracle.memo[samples[i].Op.key()]; !known {
			if fresh++; fresh%step != 0 {
				continue
			}
		}
		b.res.Info["oracle_checked"]++
		if err := b.oracle.check(&samples[i], mutated); err != nil {
			mismatches++
			b.res.Notes = append(b.res.Notes, fmt.Sprintf("oracle: %s %q: %v", samples[i].Op.Dialect, samples[i].Op.Query, err))
		}
	}
	b.res.Info["oracle_s"] += time.Since(t0).Seconds()
	return mismatches
}

// hitRatio is the share of result-cache lookups between two /stats
// readings that hit; 0 when there were none.
func hitRatio(before, after serverStats) float64 {
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// recover kills the server and restarts it on the same data directory,
// recoveryReps times over, and returns the median seconds from the kill
// until /healthz answers 200 and /stats counts exactly the acknowledged
// documents. After the last restart a sample of acknowledged ids must each
// find exactly their document through its unique token (none when deleted).
func (b *bench) recover(acked []op) (float64, error) {
	live := map[string]bool{}
	var ids []string
	for _, o := range acked {
		for _, d := range o.Docs {
			live[d.ID] = true
			ids = append(ids, d.ID)
		}
		for _, id := range o.IDs {
			delete(live, id)
		}
	}
	var secs []float64
	for rep := 0; rep < recoveryReps; rep++ {
		t0 := time.Now()
		b.stop()
		b.srv, b.gen = nil, nil
		if err := b.start(); err != nil {
			return 0, fmt.Errorf("restart after kill: %w", err)
		}
		st, err := b.srv.stats()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		b.res.Attempted++
		if want := b.cfg.Docs + len(live); st.Index.Docs != want {
			b.res.Failed++
			b.res.Notes = append(b.res.Notes, fmt.Sprintf("recovery %d: %d documents, acknowledged %d", rep, st.Index.Docs, want))
		}
		b.res.Info["replayed_records"] = float64(st.WAL.Recovery.ReplayedRecords)
	}
	step := max(len(ids)/recoverySample, 1)
	for i := 0; i < len(ids); i += step {
		id := ids[i]
		o := op{Kind: "search", Dialect: "bool", Query: "'" + uniqueToken(docNum(id)) + "'"}
		ok, body, _ := b.gen.send(b.gen.clients[0], &o, true)
		b.res.Attempted++
		switch {
		case !ok:
			b.res.Failed++
		case live[id] && (len(body.Matches) != 1 || body.Matches[0].ID != id),
			!live[id] && len(body.Matches) != 0:
			b.res.Failed++
			b.res.Notes = append(b.res.Notes, fmt.Sprintf("recovery: %s (live=%t) found %v", id, live[id], body.Matches))
		}
	}
	return median(secs), nil
}
