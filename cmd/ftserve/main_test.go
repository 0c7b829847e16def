package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fulltext"
	"fulltext/internal/telemetry"
)

func testServer(t *testing.T) (*httptest.Server, *fulltext.ShardedIndex) {
	t.Helper()
	dir := t.TempDir()
	docs := map[string]string{
		"usability": "the usability test ran for quality",
		"software":  "test usability of the software test",
		"unrelated": "nothing relevant here",
	}
	for name, body := range docs {
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := buildOrLoad(dir, "", "", 2, "interval", 0, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(ix))
	t.Cleanup(ts.Close)
	return ts, ix
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d\n%s", url, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var resp searchResponse
	getJSON(t, ts.URL+"/search?q='test'+AND+'usability'&lang=bool", http.StatusOK, &resp)
	if resp.Count != 2 || len(resp.Matches) != 2 {
		t.Fatalf("unexpected response %+v", resp)
	}
	// Document order: file names are indexed in sorted order.
	if resp.Matches[0].ID != "software" || resp.Matches[1].ID != "usability" {
		t.Fatalf("unexpected match order %+v", resp.Matches)
	}
	if resp.Matches[0].Score != nil {
		t.Fatalf("boolean search must not report scores: %+v", resp.Matches[0])
	}

	var ranked searchResponse
	getJSON(t, ts.URL+"/search?q='test'+AND+'usability'&lang=bool&rank=tfidf&top=1", http.StatusOK, &ranked)
	if ranked.Count != 1 || ranked.Matches[0].Score == nil || *ranked.Matches[0].Score <= 0 {
		t.Fatalf("unexpected ranked response %+v", ranked)
	}

	comp := "/search?q=SOME+p1+SOME+p2+(p1+HAS+'test'+AND+p2+HAS+'usability'+AND+distance(p1,p2,2))"
	var compResp searchResponse
	getJSON(t, ts.URL+comp, http.StatusOK, &compResp)
	if compResp.Count == 0 {
		t.Fatalf("COMP query matched nothing: %+v", compResp)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	ts, _ := testServer(t)
	var e map[string]string
	for _, path := range []string{
		"/search",                              // missing q
		"/search?q='a'&lang=klingon",           // bad dialect
		"/search?q='a'&engine=warp",            // bad engine
		"/search?q='a'&rank=sideways",          // bad rank
		"/search?q='a'&rank=tfidf&top=abc",     // bad top
		"/search?q='a'&rank=tfidf&top=0",       // top out of range (would mean "all")
		"/search?q='a'&rank=tfidf&top=-5",      // negative top
		"/search?q='a'&rank=tfidf&top=9999999", // excessive top
		"/search?q='a'+AND+&lang=bool",         // parse error
	} {
		getJSON(t, ts.URL+path, http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Fatalf("%s: no error message in response", path)
		}
	}
	resp, err := http.Post(ts.URL+"/search?q='a'", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /search: status %d, want 405", resp.StatusCode)
	}
}

func TestExplainStatsHealthz(t *testing.T) {
	ts, ix := testServer(t)
	var ex map[string]string
	getJSON(t, ts.URL+"/explain?q='test'&lang=bool", http.StatusOK, &ex)
	if ex["plan"] == "" || ex["class"] == "" {
		t.Fatalf("explain response incomplete: %v", ex)
	}
	if strings.Contains(ex["plan"], "ranked path") {
		t.Fatalf("unranked explain names a ranked path: %q", ex["plan"])
	}
	// With rank= the plan says which ranked path serves the query, and why
	// when it is not the fast path.
	for q, want := range map[string]string{
		"dist('test','usability',3)":     "ranked path: wand\n",
		"'test' AND EVERY p (p HAS ANY)": "ranked path: exhaustive (every)\n",
	} {
		getJSON(t, ts.URL+"/explain?lang=comp&rank=pra&q="+url.QueryEscape(q), http.StatusOK, &ex)
		if !strings.HasSuffix(ex["plan"], want) {
			t.Fatalf("explain %s: plan %q does not end with %q", q, ex["plan"], want)
		}
	}
	getJSON(t, ts.URL+"/explain?q='test'&lang=bool&rank=sideways", http.StatusBadRequest, &ex)

	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hz)
	if hz["status"] != "ok" || int(hz["docs"].(float64)) != ix.Docs() {
		t.Fatalf("healthz response %v", hz)
	}

	// Two identical searches: the second must be a cache hit.
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	var st struct {
		Shards int `json:"shards"`
		Index  struct {
			Docs int `json:"docs"`
		} `json:"index"`
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Shards != 2 || st.Index.Docs != 3 {
		t.Fatalf("stats response %+v", st)
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("cache counters not reported: %+v", st.Cache)
	}
}

func TestStatsPerShardAndLatency(t *testing.T) {
	ts, ix := testServer(t)
	// Generate some query latency samples, including a ranked fast-path one.
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	getJSON(t, ts.URL+"/search?q='test'+AND+'usability'&lang=bool&rank=tfidf&top=1", http.StatusOK, &r)

	var st struct {
		PerShard []struct {
			Shard  int `json:"shard"`
			Docs   int `json:"docs"`
			Tokens int `json:"tokens"`
		} `json:"per_shard"`
		Latency struct {
			Count  uint64  `json:"count"`
			Window int     `json:"window"`
			AvgMS  float64 `json:"avg_ms"`
		} `json:"latency"`
		Ranked struct {
			FastPath   uint64 `json:"fast_path_evals"`
			ScoredDocs uint64 `json:"scored_docs"`
		} `json:"ranked"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if len(st.PerShard) != ix.Shards() {
		t.Fatalf("per_shard has %d entries, want %d", len(st.PerShard), ix.Shards())
	}
	docs, tokens := 0, 0
	for i, ps := range st.PerShard {
		if ps.Shard != i {
			t.Fatalf("per_shard[%d] labeled shard %d", i, ps.Shard)
		}
		docs += ps.Docs
		tokens += ps.Tokens
	}
	if docs != ix.Docs() || tokens == 0 {
		t.Fatalf("per_shard docs=%d (want %d), tokens=%d", docs, ix.Docs(), tokens)
	}
	if st.Latency.Count < 2 || st.Latency.Window < 2 {
		t.Fatalf("latency tracker did not record queries: %+v", st.Latency)
	}
	if st.Ranked.FastPath == 0 {
		t.Fatalf("ranked fast-path counter not exposed: %+v", st.Ranked)
	}
}

func TestInflightLimiterSheds(t *testing.T) {
	s := &server{}
	release := make(chan struct{})
	entered := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h := s.limitInflight(inner, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		h.ServeHTTP(first, httptest.NewRequest("GET", "/search?q='a'", nil))
	}()
	<-entered // the slot is now held

	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest("GET", "/search?q='a'", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request got %d, want 503", second.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(second.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("503 body not a JSON error: %q (%v)", second.Body.String(), err)
	}
	if s.shedCount() != 1 {
		t.Fatalf("shed counter %d, want 1", s.shedCount())
	}

	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("held request got %d, want 200", first.Code)
	}
}

func TestRequestTimeout(t *testing.T) {
	// Deterministic timeout: the inner handler blocks until released, so
	// the 503 cannot race a fast handler completion.
	release := make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	h := withJSONTimeout(slow, 5*time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q='test'&lang=bool", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request got %d, want 503", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "timed out") {
		t.Fatalf("timeout body %q (%v)", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout response Content-Type %q, want application/json", ct)
	}

	// A generous timeout must not disturb normal JSON responses.
	_, ix := testServer(t)
	full := newServerWith(ix, serverConfig{Timeout: time.Minute})
	rec = httptest.NewRecorder()
	full.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q='test'&lang=bool", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("normal request through timeout middleware: status %d, Content-Type %q",
			rec.Code, rec.Header().Get("Content-Type"))
	}
}

func TestAccessLog(t *testing.T) {
	_, ix := testServer(t)
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &buf, mu: &mu}, nil))
	h := newServerWith(ix, serverConfig{AccessLog: logger})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q='test'&lang=bool", nil))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/search", nil)) // 400: missing q

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Msg        string  `json:"msg"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log line not JSON: %q: %v", lines[0], err)
	}
	if entry.Method != "GET" || entry.Path != "/search" || entry.Status != http.StatusOK {
		t.Fatalf("unexpected access log entry %+v", entry)
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Status != http.StatusBadRequest {
		t.Fatalf("error request logged with status %d, want 400", entry.Status)
	}
}

type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestServeLoadedIndex(t *testing.T) {
	_, ix := testServer(t)
	path := filepath.Join(t.TempDir(), "idx.ftss")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := buildOrLoad("", path, "", 0, "interval", 0, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(loaded))
	defer ts.Close()
	var resp searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &resp)
	if resp.Count != 2 {
		t.Fatalf("loaded index response %+v", resp)
	}
	if _, err := buildOrLoad("", "", "", 0, "interval", 0, fulltext.AutoCheckpoint{}); err == nil {
		t.Fatal("buildOrLoad with no source should fail")
	}
	if _, err := buildOrLoad(t.TempDir(), "", "", 2, "interval", 0, fulltext.AutoCheckpoint{}); err == nil {
		t.Fatal("empty dir should fail")
	}
}

// doJSON issues a request with an optional JSON body and decodes the JSON
// response.
func doJSON(t *testing.T, method, url string, body string, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, url, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
}

func TestAddAndDeleteDocEndpoints(t *testing.T) {
	ts, ix := testServer(t)

	// A new document becomes searchable immediately, with no shard rebuild.
	before := ix.SegmentStats()
	var added struct {
		ID   string `json:"id"`
		Docs int    `json:"docs"`
	}
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"fresh","body":"a fresh usability document"}`, http.StatusCreated, &added)
	if added.ID != "fresh" || added.Docs != 4 {
		t.Fatalf("add response = %+v", added)
	}
	if after := ix.SegmentStats(); after.Rebuilds != before.Rebuilds {
		t.Fatalf("POST /docs rebuilt a shard (%d -> %d rebuilds)", before.Rebuilds, after.Rebuilds)
	}
	var sr searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &sr)
	if sr.Count != 3 {
		t.Fatalf("search after add found %d docs, want 3", sr.Count)
	}

	// Duplicate ids conflict.
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"fresh","body":"again"}`, http.StatusConflict, nil)
	// Malformed and empty-id bodies are client errors.
	doJSON(t, "POST", ts.URL+"/docs", `{`, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/docs", `{"body":"no id"}`, http.StatusBadRequest, nil)

	// Deleting removes the document from results; a second delete is 404.
	var del struct {
		Docs int `json:"docs"`
	}
	doJSON(t, "DELETE", ts.URL+"/docs/fresh", "", http.StatusOK, &del)
	if del.Docs != 3 {
		t.Fatalf("delete response docs = %d, want 3", del.Docs)
	}
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &sr)
	if sr.Count != 2 {
		t.Fatalf("search after delete found %d docs, want 2", sr.Count)
	}
	doJSON(t, "DELETE", ts.URL+"/docs/fresh", "", http.StatusNotFound, nil)

	// The id is free again: delete-then-add round-trips.
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"fresh","body":"usability reborn"}`, http.StatusCreated, nil)
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &sr)
	if sr.Count != 3 {
		t.Fatalf("search after re-add found %d docs, want 3", sr.Count)
	}
}

func TestStatsSegmentsSection(t *testing.T) {
	ts, _ := testServer(t)
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"extra","body":"one more document"}`, http.StatusCreated, nil)
	doJSON(t, "DELETE", ts.URL+"/docs/unrelated", "", http.StatusOK, nil)

	var stats struct {
		Segments map[string]uint64 `json:"segments"`
		PerShard []struct {
			Segments   int `json:"segments"`
			Deltas     int `json:"delta_segments"`
			Tombstones int `json:"tombstones"`
		} `json:"per_shard"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	if _, ok := stats.Segments["rebuilds"]; !ok {
		t.Fatalf("stats missing segments.rebuilds: %+v", stats.Segments)
	}
	segs, tombs := 0, 0
	for _, ps := range stats.PerShard {
		if ps.Segments < 1 {
			t.Fatalf("per-shard segment count missing: %+v", stats.PerShard)
		}
		segs += ps.Segments
		tombs += ps.Tombstones
	}
	// On a tiny corpus the base-ratio trigger may fold the fresh delta into
	// the base immediately; either the delta is still visible or a merge
	// was counted.
	if segs < 3 && stats.Segments["merges"] == 0 {
		t.Fatalf("expected a delta segment or a merge after POST /docs, got %d segments, %d merges", segs, stats.Segments["merges"])
	}
	// Likewise the tombstone-ratio trigger may already have compacted the
	// deleted document away.
	if tombs != 1 && stats.Segments["merges"] == 0 {
		t.Fatalf("expected a tombstone or a compaction after DELETE, got %d tombstones, %d merges", tombs, stats.Segments["merges"])
	}
}

func TestAddBatchEndpoint(t *testing.T) {
	ts, ix := testServer(t)

	// A whole batch lands as one mutation: searchable immediately, no
	// shard rebuild, and the response reports the batch size.
	before := ix.SegmentStats()
	var added struct {
		Added int `json:"added"`
		Docs  int `json:"docs"`
	}
	doJSON(t, "POST", ts.URL+"/docs/batch",
		`{"docs":[{"id":"b1","body":"usability batch one"},{"id":"b2","body":"usability batch two"},{"id":"b3","body":"unrelated filler"}]}`,
		http.StatusCreated, &added)
	if added.Added != 3 || added.Docs != 6 {
		t.Fatalf("batch response = %+v", added)
	}
	if after := ix.SegmentStats(); after.Rebuilds != before.Rebuilds {
		t.Fatalf("POST /docs/batch rebuilt a shard (%d -> %d rebuilds)", before.Rebuilds, after.Rebuilds)
	}
	var sr searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &sr)
	if sr.Count != 4 {
		t.Fatalf("search after batch found %d docs, want 4", sr.Count)
	}

	// All-or-nothing: a batch with one conflicting id applies nothing.
	doJSON(t, "POST", ts.URL+"/docs/batch",
		`{"docs":[{"id":"b4","body":"never lands"},{"id":"b1","body":"conflict"}]}`,
		http.StatusConflict, nil)
	if got := ix.Docs(); got != 6 {
		t.Fatalf("failed batch changed the corpus: %d docs, want 6", got)
	}
	// Malformed, empty, and missing-id batches are client errors.
	doJSON(t, "POST", ts.URL+"/docs/batch", `{`, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/docs/batch", `{"docs":[]}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/docs/batch", `{"docs":[{"body":"no id"}]}`, http.StatusBadRequest, nil)
}

func TestDeleteBatchEndpoint(t *testing.T) {
	ts, ix := testServer(t)
	var resp struct {
		Requested int `json:"requested"`
		Deleted   int `json:"deleted"`
		Docs      int `json:"docs"`
	}
	// Misses and duplicates are skipped, hits are deleted, one mutation.
	doJSON(t, "POST", ts.URL+"/docs/delete-batch",
		`{"ids":["usability","ghost","usability","software"]}`,
		http.StatusOK, &resp)
	if resp.Requested != 4 || resp.Deleted != 2 || resp.Docs != 1 {
		t.Fatalf("delete-batch response = %+v", resp)
	}
	if ix.Docs() != 1 {
		t.Fatalf("%d docs after delete-batch, want 1", ix.Docs())
	}
	var sr searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &sr)
	if sr.Count != 0 {
		t.Fatalf("deleted docs still match: %+v", sr)
	}
	// Malformed and empty batches are client errors.
	doJSON(t, "POST", ts.URL+"/docs/delete-batch", `{`, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/docs/delete-batch", `{"ids":[]}`, http.StatusBadRequest, nil)
}

func TestCheckpointEndpointWithoutDataDir(t *testing.T) {
	ts, _ := testServer(t)
	// Not durable: checkpointing is a deployment mismatch, not a 500.
	doJSON(t, "POST", ts.URL+"/checkpoint", "", http.StatusConflict, nil)
}

// durableServer builds a durable server over a fresh data directory.
func durableServer(t *testing.T, dataDir string) (*httptest.Server, *fulltext.ShardedIndex) {
	t.Helper()
	ix, err := buildOrLoad("", "", dataDir, 2, "interval", time.Millisecond, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(ix))
	t.Cleanup(ts.Close)
	return ts, ix
}

func TestDurableServerCheckpointAndRecovery(t *testing.T) {
	dataDir := t.TempDir()
	ts, ix := durableServer(t, dataDir)
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"a","body":"usability quality"}`, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/docs/batch",
		`{"docs":[{"id":"b","body":"software test"},{"id":"c","body":"usability test"}]}`,
		http.StatusCreated, nil)

	var ck struct {
		LSN           uint64  `json:"lsn"`
		SnapshotBytes int64   `json:"snapshot_bytes"`
		TookMS        float64 `json:"took_ms"`
	}
	doJSON(t, "POST", ts.URL+"/checkpoint", "", http.StatusOK, &ck)
	if ck.LSN != 2 || ck.SnapshotBytes == 0 {
		t.Fatalf("checkpoint response = %+v", ck)
	}
	// Post-checkpoint mutations live only in the log tail.
	doJSON(t, "POST", ts.URL+"/docs", `{"id":"d","body":"late arrival"}`, http.StatusCreated, nil)
	doJSON(t, "DELETE", ts.URL+"/docs/b", "", http.StatusOK, nil)

	var stats map[string]any
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	walSec, ok := stats["wal"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing wal section: %v", stats)
	}
	if walSec["attached"] != true || walSec["sync_policy"] != "interval" ||
		walSec["checkpoints"].(float64) != 1 {
		t.Fatalf("wal stats = %v", walSec)
	}

	// Reference answer before the crash.
	var before searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&rank=tfidf&top=10&lang=bool", http.StatusOK, &before)

	// Crash (abandon without closing) and restart from the directory.
	if err := ix.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	ts2, ix2 := durableServer(t, dataDir)
	defer ix2.Close()
	rec := ix2.WALStats().Recovery
	if rec.SnapshotLSN != 2 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery after restart: %+v", rec)
	}
	var after searchResponse
	getJSON(t, ts2.URL+"/search?q='usability'&rank=tfidf&top=10&lang=bool", http.StatusOK, &after)
	if after.Count != before.Count || len(after.Matches) != len(before.Matches) {
		t.Fatalf("recovered results diverged: %+v vs %+v", after, before)
	}
	for i := range before.Matches {
		if after.Matches[i].ID != before.Matches[i].ID ||
			*after.Matches[i].Score != *before.Matches[i].Score {
			t.Fatalf("recovered match %d diverged: %+v vs %+v", i, after.Matches[i], before.Matches[i])
		}
	}
	// And the recovery counters are visible over HTTP.
	var stats2 map[string]any
	getJSON(t, ts2.URL+"/stats", http.StatusOK, &stats2)
	recSec := stats2["wal"].(map[string]any)["recovery"].(map[string]any)
	if recSec["snapshot_lsn"].(float64) != 2 || recSec["replayed_records"].(float64) == 0 {
		t.Fatalf("recovery stats over HTTP: %v", recSec)
	}
}

func TestDurableSeedFromTxtDir(t *testing.T) {
	txt := t.TempDir()
	for name, body := range map[string]string{
		"one": "usability first",
		"two": "software second",
	} {
		if err := os.WriteFile(filepath.Join(txt, name+".txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dataDir := t.TempDir()
	ix, err := buildOrLoad(txt, "", dataDir, 2, "interval", time.Millisecond, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Docs() != 2 {
		t.Fatalf("seeded %d docs, want 2", ix.Docs())
	}
	// The seed went through the WAL: a restart replays it.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := buildOrLoad(txt, "", dataDir, 2, "interval", time.Millisecond, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Docs() != 2 {
		t.Fatalf("recovered %d docs, want 2", re.Docs())
	}
	// A non-empty store is not re-seeded (ids would conflict).
	if rec := re.WALStats().Recovery; rec.ReplayedAdds != 2 {
		t.Fatalf("recovery replayed %d adds, want 2", rec.ReplayedAdds)
	}
}

func TestDataDirAndLoadAreExclusive(t *testing.T) {
	if _, err := buildOrLoad("", "some.ftss", t.TempDir(), 2, "interval", 0, fulltext.AutoCheckpoint{}); err == nil {
		t.Fatal("-data-dir with -load should fail")
	}
	if _, err := buildOrLoad("", "", t.TempDir(), 2, "bogus", 0, fulltext.AutoCheckpoint{}); err == nil {
		t.Fatal("bogus -wal-sync should fail")
	}
}

// metricsFamilies scrapes url's /metrics and returns the parsed families
// by name, failing the test on any exposition-format violation.
func metricsFamilies(t *testing.T, base string) map[string]telemetry.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ExpositionContentType {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	byName := make(map[string]telemetry.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	// Traffic across the endpoint spectrum so the histograms have counts.
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	getJSON(t, ts.URL+"/search?q='test'+AND+'usability'&lang=bool&rank=tfidf&top=2", http.StatusOK, &r)
	var added map[string]any
	postJSON(t, ts.URL+"/docs", `{"id": "metric-doc", "body": "telemetry test body"}`, http.StatusCreated, &added)

	fams := metricsFamilies(t, ts.URL)
	for _, want := range []string{
		"fulltext_http_request_duration_seconds",
		"fulltext_query_plan_seconds",
		"fulltext_query_shard_eval_seconds",
		"fulltext_query_merge_seconds",
		"fulltext_ranked_evals_total",
		"fulltext_wand_scored_docs_total",
		"fulltext_query_cache_misses_total",
		"fulltext_segment_merges_total",
		"fulltext_merge_queue_depth",
		"fulltext_merge_workers",
		"fulltext_docs",
		"fulltext_wal_appends_total",
		"fulltext_checkpoints_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("metric family %q missing from /metrics", want)
		}
	}
	// The search endpoint histogram saw both queries.
	var searchCount float64
	for _, s := range fams["fulltext_http_request_duration_seconds"].Samples {
		if s.Name == "fulltext_http_request_duration_seconds_count" && s.Labels["endpoint"] == "search" {
			searchCount = s.Value
		}
	}
	if searchCount < 2 {
		t.Fatalf("search endpoint histogram count = %v, want >= 2", searchCount)
	}
	// The WAND fast path ran for the ranked query.
	var wandEvals float64
	for _, s := range fams["fulltext_ranked_evals_total"].Samples {
		if s.Labels["path"] == "wand" {
			wandEvals = s.Value
		}
	}
	if wandEvals == 0 {
		t.Fatalf("fulltext_ranked_evals_total{path=\"wand\"} = 0 after a ranked query")
	}
	// The mutation endpoint histogram saw the POST /docs.
	var docsCount float64
	for _, s := range fams["fulltext_http_request_duration_seconds"].Samples {
		if s.Name == "fulltext_http_request_duration_seconds_count" && s.Labels["endpoint"] == "docs" {
			docsCount = s.Value
		}
	}
	if docsCount != 1 {
		t.Fatalf("docs endpoint histogram count = %v, want 1", docsCount)
	}
}

func postJSON(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d\n%s", url, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, data, err)
		}
	}
}

// spanNames flattens a span tree into its set of node names.
func spanNames(tree *telemetry.SpanJSON, into map[string]int) {
	if tree == nil {
		return
	}
	into[tree.Name]++
	for i := range tree.Children {
		spanNames(&tree.Children[i], into)
	}
}

// findSpan returns the first span of the tree with the given name, or an
// empty span.
func findSpan(tree *telemetry.SpanJSON, name string) telemetry.SpanJSON {
	if tree.Name == name {
		return *tree
	}
	for i := range tree.Children {
		if sp := findSpan(&tree.Children[i], name); sp.Name == name {
			return sp
		}
	}
	return telemetry.SpanJSON{}
}

func TestTraceCoversEveryShard(t *testing.T) {
	ts, ix := testServer(t)
	for _, path := range []string{
		"/search?q='test'&lang=bool&trace=1",
		"/search?q='test'+AND+'usability'&lang=bool&rank=tfidf&top=2&trace=true",
	} {
		var r searchResponse
		getJSON(t, ts.URL+path, http.StatusOK, &r)
		if r.Trace == nil {
			t.Fatalf("%s: no trace in response", path)
		}
		names := map[string]int{}
		spanNames(r.Trace, names)
		if names["plan"] != 1 || names["merge"] != 1 {
			t.Fatalf("%s: span tree missing plan/merge: %v", path, names)
		}
		if strings.Contains(path, "rank=") {
			if notes := findSpan(r.Trace, "plan").Notes; notes["ranked_path"] != "wand" {
				t.Fatalf("%s: plan span notes %v, want ranked_path=wand", path, notes)
			}
		}
		for i := 0; i < ix.Shards(); i++ {
			if names[fmt.Sprintf("shard %d", i)] != 1 {
				t.Fatalf("%s: span tree does not cover shard %d: %v", path, i, names)
			}
		}
		if r.Trace.DurationMS < 0 {
			t.Fatalf("%s: negative root duration", path)
		}
	}
	// Untraced requests must not carry a span tree.
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	if r.Trace != nil {
		t.Fatalf("untraced request returned a trace")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from server handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLogging(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("slow query test doc"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := buildOrLoad(dir, "", "", 2, "interval", 0, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	h := newServerWith(ix, serverConfig{
		MaxInflight: 8,
		Timeout:     10 * time.Second,
		AccessLog:   slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowQuery:   time.Nanosecond, // everything is slow
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	var r searchResponse
	getJSON(t, ts.URL+"/search?q='slow'&lang=bool", http.StatusOK, &r)

	// The slow-query line is written before the handler returns (it is
	// inside the instrument middleware), but the access-log line may land
	// after the client sees the response; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), "slow request") {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-query log line; log:\n%s", logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, `"trace":`) || !strings.Contains(logged, `"name":"search"`) {
		t.Fatalf("slow-query line lacks the span tree:\n%s", logged)
	}

	var st struct {
		Telemetry struct {
			SpansStarted uint64 `json:"spans_started"`
			SlowQueries  uint64 `json:"slow_queries"`
		} `json:"telemetry"`
		Endpoints map[string]struct {
			Count uint64 `json:"count"`
		} `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Telemetry.SlowQueries == 0 || st.Telemetry.SpansStarted == 0 {
		t.Fatalf("telemetry section not populated: %+v", st.Telemetry)
	}
	if st.Endpoints["search"].Count == 0 {
		t.Fatalf("endpoints section missing search traffic: %+v", st.Endpoints)
	}
}

func TestPProfRouting(t *testing.T) {
	ts, _ := testServer(t)
	// Disabled by default: the route must not exist.
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("pprof served without -pprof")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("pprof doc"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := buildOrLoad(dir, "", "", 1, "interval", 0, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	on := httptest.NewServer(newServerWith(ix, serverConfig{PProf: true, Timeout: time.Second}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline with -pprof: status %d", resp.StatusCode)
	}
}

// testServerWith spins up an httptest server over a small corpus with an
// explicit serverConfig, closing the history sampler on cleanup.
func testServerWith(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	docs := map[string]string{
		"usability": "the usability test ran for quality",
		"software":  "test usability of the software test",
		"unrelated": "nothing relevant here",
	}
	for name, body := range docs {
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := buildOrLoad(dir, "", "", 2, "interval", 0, fulltext.AutoCheckpoint{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerWith(ix, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthzExtendedBody(t *testing.T) {
	ts, ix := testServer(t)
	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hz)
	// Backward-compatible core plus the new fields.
	if hz["status"] != "ok" || int(hz["docs"].(float64)) != ix.Docs() || int(hz["shards"].(float64)) != 2 {
		t.Fatalf("healthz core fields: %v", hz)
	}
	if _, ok := hz["uptime_s"].(float64); !ok {
		t.Fatalf("healthz missing uptime_s: %v", hz)
	}
	rec, ok := hz["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing recovery: %v", hz)
	}
	if att, ok := rec["wal_attached"].(bool); !ok || att {
		t.Fatalf("txt-dir server claims an attached WAL: %v", rec)
	}
	// No objectives declared: no slo section.
	if _, present := hz["slo"]; present {
		t.Fatalf("healthz reports slo without objectives: %v", hz)
	}
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	ts := testServerWith(t, serverConfig{
		Timeout:         time.Second,
		HistoryInterval: 2 * time.Millisecond,
	})
	// Traffic so the request-duration histograms move.
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)

	type window struct {
		Window  string `json:"window"`
		Samples int    `json:"samples"`
		Series  []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			Points []struct {
				Value float64 `json:"value"`
			} `json:"points,omitempty"`
		} `json:"series"`
	}
	// Poll: the sampler needs >= 2 ticks before windows carry series.
	var w window
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/metrics/history?window=1m", http.StatusOK, &w)
		if len(w.Series) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.Window != "1m0s" || w.Samples < 2 || len(w.Series) == 0 {
		t.Fatalf("history window empty after sampling: %+v", w)
	}
	names := map[string]string{}
	for _, s := range w.Series {
		names[s.Name] = s.Kind
	}
	if names["fulltext_http_request_duration_seconds"] != "histogram" {
		t.Fatalf("request-duration series missing from history: %v", names)
	}
	if names["fulltext_docs"] != "gauge" {
		t.Fatalf("docs gauge missing from history: %v", names)
	}

	// The metric prefix filter narrows the series list.
	getJSON(t, ts.URL+"/metrics/history?window=1m&metric=fulltext_docs", http.StatusOK, &w)
	for _, s := range w.Series {
		if !strings.HasPrefix(s.Name, "fulltext_docs") {
			t.Fatalf("prefix filter leaked %q", s.Name)
		}
	}

	// Bad window is a 400.
	resp, err := http.Get(ts.URL + "/metrics/history?window=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
	}

	// Disabled history is a 404.
	off := testServerWith(t, serverConfig{Timeout: time.Second, HistoryInterval: -1})
	resp, err = http.Get(off.URL + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled history: status %d, want 404", resp.StatusCode)
	}
}

func TestStatsQueriesHotShapeFirst(t *testing.T) {
	ts := testServerWith(t, serverConfig{Timeout: time.Second})
	// Skewed traffic: one shape dominates. Different literals, same
	// operator tree — they must aggregate into a single fingerprint.
	hot := []string{"'test'+AND+'usability'", "'software'+AND+'test'", "'quality'+AND+'ran'"}
	for i := 0; i < 12; i++ {
		var r searchResponse
		getJSON(t, ts.URL+"/search?q="+hot[i%len(hot)]+"&lang=bool&rank=tfidf&k=5", http.StatusOK, &r)
	}
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='usability'&lang=bool", http.StatusOK, &r)
	getJSON(t, ts.URL+"/search?q=NOT+'nothing'&lang=bool", http.StatusOK, &r)

	var sq struct {
		Capacity int    `json:"capacity"`
		Tracked  int    `json:"tracked"`
		Recorded uint64 `json:"recorded"`
		Shapes   []struct {
			Shape        string  `json:"shape"`
			Count        uint64  `json:"count"`
			LatencyMsSum float64 `json:"latency_ms_sum"`
			DocsScored   uint64  `json:"docs_scored"`
		} `json:"shapes"`
	}
	getJSON(t, ts.URL+"/stats/queries", http.StatusOK, &sq)
	if sq.Tracked != 3 || sq.Recorded != 14 {
		t.Fatalf("tracked/recorded = %d/%d, want 3/14: %+v", sq.Tracked, sq.Recorded, sq)
	}
	if len(sq.Shapes) != 3 || sq.Shapes[0].Shape != "bool:$1 AND $2" || sq.Shapes[0].Count != 12 {
		t.Fatalf("hot shape not first: %+v", sq.Shapes)
	}
	if sq.Shapes[0].LatencyMsSum <= 0 {
		t.Fatalf("hot shape has no latency aggregate: %+v", sq.Shapes[0])
	}
	if sq.Shapes[0].DocsScored == 0 {
		t.Fatalf("ranked traffic scored no docs: %+v", sq.Shapes[0])
	}

	// ?n= limits the list.
	getJSON(t, ts.URL+"/stats/queries?n=1", http.StatusOK, &sq)
	if len(sq.Shapes) != 1 || sq.Shapes[0].Count != 12 {
		t.Fatalf("n=1 = %+v", sq.Shapes)
	}

	// Disabled sketch is a 404.
	off := testServerWith(t, serverConfig{Timeout: time.Second, QueryShapes: -1})
	resp, err := http.Get(off.URL + "/stats/queries")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled sketch: status %d, want 404", resp.StatusCode)
	}
}

// An impossible latency objective must burn through the error budget and
// flip /healthz from ok to 503 (exhausted) while the budget gauge drops
// to zero — the live wiring of history → SLO → health.
func TestSLOBurnFlipsHealthz(t *testing.T) {
	ts := testServerWith(t, serverConfig{
		Timeout:          time.Second,
		HistoryInterval:  2 * time.Millisecond,
		HistoryRetention: 2 * time.Second,
		SLOLatencyP99:    time.Nanosecond, // every request is bad
		sloFast:          50 * time.Millisecond,
		sloSlow:          200 * time.Millisecond,
	})

	var slo struct {
		Status     string `json:"status"`
		Objectives []struct {
			Name            string  `json:"name"`
			Kind            string  `json:"kind"`
			Status          string  `json:"status"`
			FastBurn        float64 `json:"fast_burn"`
			BudgetRemaining float64 `json:"budget_remaining"`
		} `json:"objectives"`
	}
	getJSON(t, ts.URL+"/slo", http.StatusOK, &slo)
	if len(slo.Objectives) != 1 || slo.Objectives[0].Name != "latency_p99" || slo.Objectives[0].Kind != "latency" {
		t.Fatalf("slo objectives = %+v", slo)
	}

	// Burn: every request exceeds the 1ns objective.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var r searchResponse
		getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
		getJSON(t, ts.URL+"/slo", http.StatusOK, &slo)
		if slo.Status == "exhausted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SLO never exhausted under total burn: %+v", slo)
		}
		time.Sleep(5 * time.Millisecond)
	}
	o := slo.Objectives[0]
	if o.Status != "exhausted" || o.BudgetRemaining != 0 || o.FastBurn < 1 {
		t.Fatalf("exhausted objective = %+v", o)
	}

	// Healthz mirrors the SLO status and flips to 503.
	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, &hz)
	if hz["status"] != "exhausted" {
		t.Fatalf("healthz status = %v, want exhausted", hz["status"])
	}
	if _, ok := hz["slo"].([]any); !ok {
		t.Fatalf("healthz missing slo detail: %v", hz)
	}

	// The budget gauge is exported and at zero.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := `fulltext_slo_error_budget_remaining_ratio{objective="latency_p99"} 0`
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// Response-class counters drive the availability objective; they must
// count across the whole chain, including router 404s.
func TestResponseClassCounters(t *testing.T) {
	ts := testServerWith(t, serverConfig{Timeout: time.Second})
	var r searchResponse
	getJSON(t, ts.URL+"/search?q='test'&lang=bool", http.StatusOK, &r)
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]float64{}
	for _, f := range fams {
		if f.Name != "fulltext_http_responses_total" {
			continue
		}
		for _, s := range f.Samples {
			classes[s.Labels["class"]] = s.Value
		}
	}
	if classes["2xx"] < 1 || classes["4xx"] < 1 {
		t.Fatalf("response classes = %v, want 2xx and 4xx counted", classes)
	}
	// All four classes are registered eagerly, even at zero.
	for _, c := range []string{"2xx", "3xx", "4xx", "5xx"} {
		if _, ok := classes[c]; !ok {
			t.Fatalf("class %s not pre-registered: %v", c, classes)
		}
	}
}
