package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestStreamsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w.Reads(7), 500), streamHash(w.Reads(7), 500), streamHash(w.Reads(8), 500)
		if a != b {
			t.Errorf("%s: the same seed gave different request streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same request stream", w.Name)
		}
	}
	hash := func(seed uint64) uint64 {
		ops := writeOps(genDocs(seed, 1000, 400), pacedBatch, true)
		return streamHash(&stream{next: func() op { o := ops[0]; ops = ops[1:]; return o }}, len(ops))
	}
	if hash(7) != hash(7) || hash(7) == hash(8) {
		t.Error("write stream does not follow the seed")
	}
}

func TestUniqueStreamsNeverRepeat(t *testing.T) {
	for _, name := range []string{"classes", "ranked", "write_mix"} {
		seen := map[string]bool{}
		for _, o := range findWorkload(name).Reads(3).take(5000) {
			_, path, _ := o.target()
			if seen[path] {
				t.Fatalf("%s repeats %s", name, path)
			}
			seen[path] = true
		}
	}
}

func TestClassMix(t *testing.T) {
	n := map[string]int{}
	for _, o := range classesStream(1).take(1000) {
		n[o.Class]++
	}
	if n["bool"] != 400 || n["ppred"] != 300 || n["npred"] != 200 || n["comp"] != 100 {
		t.Errorf("class mix %v, want 400/300/200/100", n)
	}
}

func TestPlantedTokensHaveExactFrequency(t *testing.T) {
	df := map[string]int{}
	for _, d := range genDocs(5, 0, 3000) {
		toks := map[string]bool{}
		word := ""
		for _, c := range d.Body + " " {
			if c == ' ' || c == '.' || c == '\n' {
				if word != "" {
					toks[word] = true
				}
				word = ""
			} else {
				word += string(c)
			}
		}
		for tok := range toks {
			df[tok]++
		}
	}
	for ti, tr := range tiers {
		for i := 0; i < perTier; i++ {
			if got := df[planted(ti, i)]; got != 3*tr.perK {
				t.Errorf("%s in %d of 3000 documents, want %d", planted(ti, i), got, 3*tr.perK)
			}
		}
	}
	if df[uniqueToken(17)] != 1 {
		t.Errorf("unique token of document 17 occurs in %d documents", df[uniqueToken(17)])
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := percentile(xs, 0.99)
	if err != nil || v != 991 {
		t.Errorf("p99 of 1..1001 = %v, %v; want 991", v, err)
	}
	if v, err := percentile(xs[:220], 0.95); err != nil || v != 209 {
		t.Errorf("p95 of 1..220 = %v, %v; want 209", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing must fail")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// The expected values are statistics.quantiles(xs, n=4) of Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{3, 1, 7}, 1, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "http", Start: 10, End: 60, Parent: 0},
		{Name: "parse", Start: 60, End: 70, Parent: 0},
		{Name: "socket", Start: 20, End: 30, Parent: 1},
		// Overlapping children count the covered interval once, and a
		// child is clipped to its parent.
		{Name: "socket", Start: 25, End: 40, Parent: 1},
		{Name: "late", Start: 95, End: 120, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]int64{"request": 100 - 50 - 10 - 5, "http": 50 - 20, "parse": 10, "socket": 10 + 15, "late": 25}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// The manifest at the repository root is generated by -manifest; a table
// edited without regenerating it would have the driver refuse the run.
func TestManifestMatchesProgram(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the program's tables: run `go run . -manifest > ../BENCHMARK.json` in benchmark/")
	}
	var m manifest
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 || len(m.Workloads) > 8 {
		t.Errorf("manifest too large: %d per-layer, %d end-to-end, %d workloads", len(m.PerLayer), len(m.EndToEnd), len(m.Workloads))
	}
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
}

// The smoke test boots a real ftserve on a small corpus and runs one
// workload end to end and traced, with the oracle on.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real ftserve")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "benchmark", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := config{Workload: findWorkload("write_mix"), Seed: 1, Seconds: quickSeconds, Docs: quickDocs, Quick: true, Root: root, Bin: bin}
	res, err := runE2E(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("end-to-end run not correct: failed=%d invalid=%v notes=%v", res.Failed, res.Invalid, res.Notes)
	}
	for _, m := range endToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.Name, res.Metrics[m.Name].Value)
		}
	}
	cfg.Trace = true
	res, err = runTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run not correct: failed=%d invalid=%v notes=%v", res.Failed, res.Invalid, res.Notes)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
}
