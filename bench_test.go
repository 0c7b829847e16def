package fulltext

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 6), plus ablations and micro-benchmarks. The synthetic corpus
// stands in for INEX 2003 (see DESIGN.md); sizes here are scaled down so
// `go test -bench=.` completes quickly — cmd/ftbench reproduces the
// experiments at the paper's full parameters and prints the figure tables.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fulltext/internal/bench"
	"fulltext/internal/booleval"
	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/ppred"
	"fulltext/internal/pred"
	"fulltext/internal/synth"
)

// benchSetup returns the scaled-down default parameters for in-test
// benchmarks.
func benchSetup() bench.Setup {
	s := bench.Defaults(0.25) // 1500 nodes, ~100-token docs
	s.PosPerEntry = 8
	s.Repeats = 1
	return s
}

var (
	benchCacheMu sync.Mutex
	benchCache   = map[string]benchEnv{}
)

type benchEnv struct {
	ix     *invlist.Index
	plants []string
}

func builtEnv(b *testing.B, s bench.Setup) benchEnv {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%d/%d", s.CNodes, s.DocLen, s.PosPerEntry, s.Seed)
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if env, ok := benchCache[key]; ok {
		return env
	}
	_, ix, plants := bench.Build(s)
	env := benchEnv{ix: ix, plants: plants}
	benchCache[key] = env
	return env
}

func runSeries(b *testing.B, series string, s bench.Setup) {
	b.Helper()
	env := builtEnv(b, s)
	reg := pred.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := bench.RunSeries(series, env.ix, reg, env.plants, s)
		if cell.Err != "" {
			b.Fatal(cell.Err)
		}
	}
}

// BenchmarkFig5QueryTokens reproduces Figure 5: evaluation time vs the
// number of query tokens (1–5), per engine series.
func BenchmarkFig5QueryTokens(b *testing.B) {
	s := benchSetup()
	for _, toks := range []int{1, 2, 3, 4, 5} {
		for _, series := range bench.Series {
			cfg := s
			cfg.ToksQ = toks
			if cfg.PredsQ > toks {
				cfg.PredsQ = toks
			}
			b.Run(fmt.Sprintf("toks=%d/%s", toks, series), func(b *testing.B) {
				runSeries(b, series, cfg)
			})
		}
	}
}

// BenchmarkFig6QueryPredicates reproduces Figure 6: evaluation time vs the
// number of query predicates (0–4).
func BenchmarkFig6QueryPredicates(b *testing.B) {
	s := benchSetup()
	for _, preds := range []int{0, 1, 2, 3, 4} {
		for _, series := range bench.Series {
			cfg := s
			cfg.PredsQ = preds
			b.Run(fmt.Sprintf("preds=%d/%s", preds, series), func(b *testing.B) {
				runSeries(b, series, cfg)
			})
		}
	}
}

// BenchmarkFig7ContextNodes reproduces Figure 7: evaluation time vs the
// number of context nodes (the paper's 2500/6000/10000, scaled to keep
// in-test runs short).
func BenchmarkFig7ContextNodes(b *testing.B) {
	s := benchSetup()
	for _, cnodes := range []int{625, 1500, 2500} {
		for _, series := range bench.Series {
			cfg := s
			cfg.CNodes = cnodes
			b.Run(fmt.Sprintf("cnodes=%d/%s", cnodes, series), func(b *testing.B) {
				runSeries(b, series, cfg)
			})
		}
	}
}

// BenchmarkFig8PosPerEntry reproduces Figure 8: evaluation time vs the
// number of positions per inverted-list entry (5/25/125 in the paper).
func BenchmarkFig8PosPerEntry(b *testing.B) {
	s := benchSetup()
	s.CNodes = 300
	for _, ppe := range []int{5, 25, 125} {
		for _, series := range bench.Series {
			cfg := s
			cfg.PosPerEntry = ppe
			if cfg.DocLen < 3*ppe {
				cfg.DocLen = 3 * ppe
			}
			b.Run(fmt.Sprintf("ppe=%d/%s", ppe, series), func(b *testing.B) {
				runSeries(b, series, cfg)
			})
		}
	}
}

// BenchmarkFig3Hierarchy reproduces Figure 3 empirically: per-engine cost
// at data scales x1/x2/x4, demonstrating the linear (BOOL, PPRED, NPRED)
// vs superlinear (COMP) separation.
func BenchmarkFig3Hierarchy(b *testing.B) {
	s := benchSetup()
	s.CNodes = 400
	for _, scale := range []int{1, 2, 4} {
		for _, series := range bench.Series {
			cfg := s
			cfg.CNodes = s.CNodes * scale
			b.Run(fmt.Sprintf("scale=x%d/%s", scale, series), func(b *testing.B) {
				runSeries(b, series, cfg)
			})
		}
	}
}

// BenchmarkAblationNPREDOrders compares the necessary-partial-orders
// strategy against the paper's full toks_Q! permutations.
func BenchmarkAblationNPREDOrders(b *testing.B) {
	s := benchSetup()
	env := builtEnv(b, s)
	reg := pred.Default()
	w := synth.Workload{Tokens: 3, Preds: 2, Negative: true, DistLimit: s.DistLimit}
	q := w.PipelinedQuery(env.plants)
	plan, err := ppred.CompileNeg(q, reg)
	if err != nil {
		b.Fatal(err)
	}
	for name, opts := range map[string]ppred.OrderOptions{
		"partial":       {},
		"full":          {FullOrders: true},
		"full-parallel": {FullOrders: true, Parallel: true},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunAll(env.ix, reg, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures inverted-list construction.
func BenchmarkIndexBuild(b *testing.B) {
	c := synth.Corpus(synth.Config{Seed: 1, NumDocs: 500, DocLen: 200, VocabSize: 5000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invlist.Build(c)
	}
}

// BenchmarkCodec measures index serialization and deserialization.
func BenchmarkCodec(b *testing.B) {
	c := synth.Corpus(synth.Config{Seed: 1, NumDocs: 500, DocLen: 200, VocabSize: 5000})
	ix := invlist.Build(c)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if _, err := ix.WriteTo(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := invlist.ReadFrom(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTokenizer measures text tokenization with position assignment.
func BenchmarkTokenizer(b *testing.B) {
	text := ""
	for i := 0; i < 200; i++ {
		text += "usability of a software measures how well the software supports. "
	}
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		core.Tokenize(text)
	}
}

// BenchmarkBoolMerge measures the raw BOOL merge on large posting lists.
func BenchmarkBoolMerge(b *testing.B) {
	s := benchSetup()
	env := builtEnv(b, s)
	w := synth.Workload{Tokens: 3}
	q := w.BoolQuery(env.plants)
	for i := 0; i < b.N; i++ {
		if _, err := booleval.Eval(q, env.ix, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTFIDFRanked measures ranked retrieval end to end.
func BenchmarkTFIDFRanked(b *testing.B) {
	s := benchSetup()
	builder := NewBuilder()
	c := synth.Corpus(synth.Config{Seed: 9, NumDocs: 300, DocLen: 120, VocabSize: 2000,
		Plants: []synth.Plant{{Token: "needle", DocFraction: 0.2, PerDoc: 4}}})
	for _, d := range c.Docs() {
		if err := builder.AddTokens(d.ID, d.Tokens); err != nil {
			b.Fatal(err)
		}
	}
	ix := builder.Build()
	q := MustParse(BOOL, `'needle' OR 'w1'`)
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchRanked(q, TFIDF, 10); err != nil {
			b.Fatal(err)
		}
	}
}
