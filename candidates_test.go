package fulltext

// Candidate-driven evaluation: a grounded query is evaluated only on the
// nodes its posting lists name. These tests pin which shapes are grounded
// and through which driver, that Explain names the node source Search
// used, and that every candidate loop returns exactly what the 1..N scan
// oracles (the forced COMP engine, RankOptions.Exhaustive) and the
// calculus oracle ftc.Query return.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fulltext/internal/core"
	"fulltext/internal/fta"
	"fulltext/internal/ftc"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/pred"
	"fulltext/internal/segment"
	"fulltext/internal/telemetry"
	"fulltext/internal/wand"
)

// harnessCompTemplates are the five COMP templates of the benchmark's
// classes workload, filled with this file's tokens, with the node source
// each must take and the reason the WAND score bound declines it.
var harnessCompTemplates = []struct{ src, source, decline string }{
	{`'aa' AND EVERY p (NOT p HAS 'bb')`, "∩[aa]", wand.DeclineEvery},
	{`SOME p1 (p1 HAS 'aa' AND NOT SOME p2 (p2 HAS 'bb' AND distance(p1,p2,3)))`, "∩[aa]", ""},
	{`'cc' AND EVERY p1 (NOT p1 HAS 'aa' OR SOME p2 (p2 HAS 'bb' AND distance(p1,p2,3)))`, "∩[cc]", wand.DeclineEvery},
	{`'bb' AND SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS ANY AND distance(p1,p2,0) AND ordered(p1,p2))`, "∩[bb aa]", wand.DeclineHasAny},
	{`SOME p1 SOME p2 ((p1 HAS 'aa' OR p2 HAS 'bb') AND distance(p1,p2,3))`, "∪[aa bb]", wand.DeclineOpenOr},
}

const scanSource = "scan (ungrounded)"

func TestGroundingTable(t *testing.T) {
	cases := append(harnessCompTemplates[:len(harnessCompTemplates):len(harnessCompTemplates)], []struct{ src, source, decline string }{
		{`'aa' AND ANY`, "∩[aa]", wand.DeclineAny},
		{`'aa' AND NOT EVERY p (p HAS 'bb')`, "∩[aa]", wand.DeclineEvery},
		{`('aa' AND NOT 'bb') OR 'cc'`, "∪[aa cc]", ""},
		{`EVERY p (p HAS 'aa')`, scanSource, wand.DeclineEvery},
		{`EVERY p (NOT p HAS 'aa')`, scanSource, wand.DeclineEvery},
		{`ANY`, scanSource, wand.DeclineAny},
		{`'aa' OR ANY`, scanSource, wand.DeclineAny},
		{`NOT 'aa'`, scanSource, wand.DeclineFreeNot},
		{`NOT ('aa' AND 'bb')`, scanSource, wand.DeclineFreeNot},
		{`'aa' OR NOT 'bb'`, scanSource, wand.DeclineFreeNot},
		{`SOME p (NOT p HAS 'aa')`, scanSource, wand.DeclineFreeNot},
		{`SOME p (p HAS ANY)`, scanSource, wand.DeclineHasAny},
	}...)
	reg := pred.Default()
	for _, c := range cases {
		q, err := lang.Parse(lang.DialectCOMP, c.src)
		if err != nil {
			t.Fatal(err)
		}
		a := wand.Analyze(lang.Normalize(q, reg))
		if got := a.Source(); got != c.source || a.Decline != c.decline {
			t.Errorf("%s: source %q, decline %q; want %q, %q", c.src, got, a.Decline, c.source, c.decline)
		}
	}
}

// candidateDocs is a corpus where the harness templates have matches and
// non-matches: documents with and without each token, near and far apart.
var candidateDocs = [][2]string{
	{"c01", "aa xx xx bb"},
	{"c02", "aa bb"},
	{"c03", "bb aa cc"},
	{"c04", "cc xx xx xx xx aa"},
	{"c05", "cc bb aa bb"},
	{"c06", "aa"},
	{"c07", "xx yy"},
	{"c08", "cc"},
	{"c09", "bb xx xx xx xx xx aa"},
	{"c10", "aa cc. bb\n\naa"},
	{"c11", "bb"},
	{"c12", "cc aa bb aa"},
}

// TestExplainNamesSearchSource: for the harness COMP templates and an
// ungrounded shape, Explain's candidates line is the node source every
// segment's search reported using, and the results equal the forced
// 1..N scan's — on a layout with delta segments and tombstones.
func TestExplainNamesSearchSource(t *testing.T) {
	sb := NewShardedBuilder(2)
	for _, d := range candidateDocs[:8] {
		if err := sb.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	six := sb.Build()
	six.SetQueryCacheSize(0)
	holdSegments(six)
	for _, d := range candidateDocs[8:] {
		if err := six.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"c02", "c12"} {
		if !six.Delete(id) {
			t.Fatalf("delete %s failed", id)
		}
	}
	six.WaitMerges()
	requireLayout(t, six)
	shapes := append(harnessCompTemplates[:len(harnessCompTemplates):len(harnessCompTemplates)],
		struct{ src, source, decline string }{`EVERY p (p HAS 'aa')`, scanSource, wand.DeclineEvery})
	for _, c := range shapes {
		q := MustParse(COMP, c.src)
		plan, err := six.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "\ncandidates: "+c.source+"\n") {
			t.Fatalf("%s: Explain does not name %q:\n%s", c.src, c.source, plan)
		}
		root := telemetry.NewTracer().Start("query")
		got, err := six.SearchWithTrace(q, EngineAuto, root)
		if err != nil {
			t.Fatal(err)
		}
		shards := 0
		root.Walk(func(sp *telemetry.Span) {
			if !strings.HasPrefix(sp.Name(), "shard ") {
				return
			}
			shards++
			if src := sp.Tree().Notes["nodes"]; src != c.source {
				t.Fatalf("%s: %s evaluated %q, Explain names %q", c.src, sp.Name(), src, c.source)
			}
		})
		if shards != six.Shards() {
			t.Fatalf("%s: %d shard spans, want %d", c.src, shards, six.Shards())
		}
		want, err := six.SearchWith(q, EngineCOMP)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, want) {
			t.Fatalf("%s: auto %v, forced scan %v", c.src, ids(got), ids(want))
		}
	}
}

// holdSegments keeps delta segments and tombstones unmerged, so the
// layouts under test really hold them.
func holdSegments(six *ShardedIndex) {
	six.SetMergePolicy(segment.Policy{MaxDeltas: 1 << 20, BaseRatio: 1 << 20, TombstoneRatio: 1})
}

// requireLayout fails unless six holds delta segments and tombstones.
func requireLayout(t *testing.T, six *ShardedIndex) {
	t.Helper()
	segs, dead := 0, 0
	for _, sh := range six.SegmentStats().Shards {
		segs, dead = segs+sh.Segments, dead+sh.DeadDocs
	}
	if segs <= six.Shards() || dead == 0 {
		t.Fatalf("%d segments over %d shards, %d tombstones: not a base+delta+tombstone layout", segs, six.Shards(), dead)
	}
}

// candidateQuery draws a COMP query weighted toward the shapes the WAND
// bound declines but candidates still serve — EVERY, HAS ANY,
// cross-variable OR, NOT — around closed calculus queries from gen.
func candidateQuery(rng *rand.Rand, gen *ftc.Gen, vocab []string) lang.Query {
	tok := func() string { return vocab[rng.Intn(len(vocab))] }
	lit := func() lang.Query { return lang.Lit{Tok: tok()} }
	closed := func() lang.Query { return lang.FromFTC(gen.Closed()) }
	dist := func(a, b string) lang.Query {
		return lang.Pred{Name: "distance", Vars: []string{a, b}, Consts: []int{rng.Intn(4)}}
	}
	switch rng.Intn(10) {
	case 0:
		near := lang.Some{Var: "q", Q: lang.And{L: lang.Has{Var: "q", Tok: tok()}, R: dist("p", "q")}}
		return lang.And{L: lit(), R: lang.Every{Var: "p", Q: lang.Or{L: lang.Not{Q: lang.Has{Var: "p", Tok: tok()}}, R: near}}}
	case 1:
		var every lang.Query = lang.Every{Var: "p", Q: lang.Has{Var: "p", Tok: tok()}}
		if rng.Intn(2) == 0 {
			every = lang.Every{Var: "p", Q: lang.Not{Q: lang.Has{Var: "p", Tok: tok()}}}
		}
		if rng.Intn(3) == 0 {
			return every
		}
		return lang.And{L: closed(), R: every}
	case 2:
		or := lang.Or{L: lang.Has{Var: "p1", Tok: tok()}, R: lang.Has{Var: "p2", Tok: tok()}}
		return lang.Some{Var: "p1", Q: lang.Some{Var: "p2", Q: lang.And{L: or, R: dist("p1", "p2")}}}
	case 3:
		block := lang.And{L: lang.And{L: lang.Has{Var: "p1", Tok: tok()}, R: lang.HasAny{Var: "p2"}}, R: dist("p1", "p2")}
		return lang.And{L: lit(), R: lang.Some{Var: "p1", Q: lang.Some{Var: "p2", Q: block}}}
	case 4:
		return lang.And{L: lit(), R: lang.Not{Q: closed()}}
	case 5:
		return lang.Not{Q: closed()}
	case 6:
		return lang.Or{L: closed(), R: lang.And{L: lit(), R: closed()}}
	default:
		return closed()
	}
}

// searcher is what Index and ShardedIndex share for unranked search.
type searcher interface {
	Search(*Query) ([]Match, error)
	SearchWith(*Query, Engine) ([]Match, error)
}

// candidateLayouts indexes docs three ways — one index, three shards, and
// two shards of base plus delta segments with tombstones — and returns
// each with the documents it holds live.
func candidateLayouts(t *testing.T, docs [][2]string) (names []string, ixs []searcher, live [][][2]string) {
	t.Helper()
	b := NewBuilder()
	sb := NewShardedBuilder(3)
	base := NewShardedBuilder(2)
	for i, d := range docs {
		if err := b.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
		if err := sb.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
		if i < len(docs)/2 {
			if err := base.Add(d[0], d[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	seg := base.Build()
	holdSegments(seg)
	for _, d := range docs[len(docs)/2:] {
		if err := seg.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	dead := map[string]bool{docs[1][0]: true, docs[len(docs)-2][0]: true}
	var segLive [][2]string
	for _, d := range docs {
		if dead[d[0]] {
			if !seg.Delete(d[0]) {
				t.Fatalf("delete %s failed", d[0])
			}
			continue
		}
		segLive = append(segLive, d)
	}
	seg.WaitMerges()
	requireLayout(t, seg)
	three := sb.Build()
	three.SetQueryCacheSize(0)
	seg.SetQueryCacheSize(0)
	return []string{"single", "sharded-3", "base+delta+tombstones"},
		[]searcher{b.Build(), three, seg},
		[][][2]string{docs, docs, segLive}
}

// TestCandidateLoopsMatchOracles: on random corpora and queries, EngineAuto
// equals ftc.Query and the forced 1..N scan on every layout, and on every
// node the algebra accepts, Matches admits the node and the node holds a
// token of the grounding cover.
func TestCandidateLoopsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	vocab := []string{"aa", "bb", "cc", "dd"}
	reg := pred.Default()
	gen := &ftc.Gen{Rng: rng, Vocab: vocab, Reg: reg,
		Preds: []string{"distance", "ordered", "samepara", "not_distance"}, MaxDepth: 3}
	grounded, scanned := 0, 0
	for round := 0; round < 10; round++ {
		docs := make([][2]string, 10+rng.Intn(6))
		for i := range docs {
			var sb strings.Builder
			for n := rng.Intn(9); n > 0; n-- {
				sb.WriteString(vocab[rng.Intn(len(vocab))])
				sb.WriteString([]string{" ", " ", ". ", "\n\n"}[rng.Intn(4)])
			}
			docs[i] = [2]string{fmt.Sprintf("r%02d", i), sb.String()}
		}
		names, ixs, live := candidateLayouts(t, docs)
		corpora := make([]*core.Corpus, len(live))
		for i, ds := range live {
			corpora[i] = core.NewCorpus()
			for _, d := range ds {
				corpora[i].MustAdd(d[0], d[1])
			}
		}
		inv := invlist.Build(corpora[0])
		for i := 0; i < 30; i++ {
			ast := candidateQuery(rng, gen, vocab)
			if err := lang.Validate(ast, reg); err != nil {
				t.Fatalf("%s: %v", ast, err)
			}
			norm := lang.Normalize(ast, reg)
			a := wand.Analyze(norm)
			if a.Grounded {
				grounded++
			} else {
				scanned++
			}
			checkCover(t, norm, a, inv, reg)
			q := &Query{ast: ast}
			for li, ix := range ixs {
				nodes, err := ftc.Query(corpora[li], reg, lang.ToFTC(ast))
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, n := range nodes {
					want = append(want, corpora[li].Doc(n).ID)
				}
				auto, err := ix.Search(q)
				if err != nil {
					t.Fatalf("%s %s: %v", names[li], ast, err)
				}
				forced, err := ix.SearchWith(q, EngineCOMP)
				if err != nil {
					t.Fatalf("%s %s: %v", names[li], ast, err)
				}
				if fmt.Sprint(ids(auto)) != fmt.Sprint(want) || fmt.Sprint(ids(forced)) != fmt.Sprint(want) {
					t.Fatalf("%s %s (%s):\nauto   %v\nforced %v\nftc    %v", names[li], ast, a.Source(), ids(auto), ids(forced), want)
				}
			}
		}
	}
	if grounded < 100 || scanned < 30 {
		t.Fatalf("%d grounded and %d ungrounded queries: a side is barely exercised", grounded, scanned)
	}
}

// checkCover holds, on every node the algebra accepts, the two facts the
// candidate loop rests on: Matches admits the node, and a grounded query's
// node contains its required tokens, or one of its tokens when none is
// required.
func checkCover(t *testing.T, norm lang.Query, a *wand.Analysis, ix *invlist.Index, reg *pred.Registry) {
	t.Helper()
	plan, err := fta.Compile(lang.ToFTC(norm), reg)
	if err != nil {
		t.Fatalf("%s: %v", norm, err)
	}
	ev := &fta.Evaluator{Index: ix, Reg: reg}
	for n := 1; n <= ix.NumNodes(); n++ {
		node := core.NodeID(n)
		matched, _, err := ev.EvalNode(plan, node)
		if err != nil {
			t.Fatal(err)
		}
		if e := ix.Any().Find(node); !matched || e == nil || len(e.Pos) == 0 {
			continue // Matches presumes a non-empty node, as every candidate is
		}
		present := func(tok string) bool { return ix.List(tok).Find(node) != nil }
		if !a.Matches(present) {
			t.Fatalf("%s: Matches rejects node %d, which the algebra accepts", norm, n)
		}
		if !a.Grounded {
			continue
		}
		covered := false
		for _, tok := range a.Tokens {
			if len(a.Required) > 0 && a.Required[tok] && !present(tok) {
				t.Fatalf("%s: node %d matches without required %q", norm, n, tok)
			}
			covered = covered || present(tok)
		}
		if !covered {
			t.Fatalf("%s: node %d matches outside the cover %s", norm, n, a.Source())
		}
	}
}

// TestRankedCandidatesMatchExhaustive: ranked queries the WAND bound
// declines, and any query at topK <= 0, run the candidate loop; ids and
// scores must equal RankOptions.Exhaustive's bit for bit, under both
// models, on single, sharded and segmented-with-tombstones layouts.
func TestRankedCandidatesMatchExhaustive(t *testing.T) {
	single, sharded := buildWandIndexes(t)
	sb := NewShardedBuilder(2)
	docs := wandCorpus()
	for _, d := range docs[:12] {
		if err := sb.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	seg := sb.Build()
	seg.SetQueryCacheSize(0)
	holdSegments(seg)
	for _, d := range docs[12:] {
		if err := seg.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"d04", "d19", "d24"} {
		if !seg.Delete(id) {
			t.Fatalf("delete %s failed", id)
		}
	}
	seg.WaitMerges()
	requireLayout(t, seg)
	type ranker interface {
		SearchRankedOpts(*Query, ScoringModel, int, RankOptions) ([]Match, error)
		RankedEvalStats() RankedEvalStats
	}
	layouts := map[string]ranker{"single": single, "sharded-1": sharded[0], "sharded-3": sharded[1], "segmented": seg}
	declined := []string{
		`'alpha' AND EVERY p (NOT p HAS 'rare')`,
		`'gamma' AND EVERY p1 (NOT p1 HAS 'alpha' OR SOME p2 (p2 HAS 'beta' AND distance(p1,p2,2)))`,
		`'beta' AND SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS ANY AND distance(p1,p2,0) AND ordered(p1,p2))`,
		`SOME p1 SOME p2 ((p1 HAS 'rare' OR p2 HAS 'dup') AND distance(p1,p2,1))`,
		`SOME p1 SOME p2 SOME p3 ((p1 HAS 'alpha' AND p2 HAS 'beta') AND (p2 HAS 'gamma' AND p3 HAS 'delta'))`,
		`'delta' AND NOT ANY`,
	}
	eligible := []string{`'alpha' OR 'beta'`, `'alpha' AND NOT 'beta'`, `dist('alpha','beta',2)`}
	check := func(src string, ks []int, declined bool) {
		q := MustParse(COMP, src)
		for name, ix := range layouts {
			for _, m := range []ScoringModel{TFIDF, PRA} {
				for _, k := range ks {
					want, err := ix.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
					if err != nil {
						t.Fatal(err)
					}
					before := ix.RankedEvalStats()
					got, err := ix.SearchRankedOpts(q, m, k, RankOptions{})
					if err != nil {
						t.Fatal(err)
					}
					after := ix.RankedEvalStats()
					if after.ExhaustiveQueries == before.ExhaustiveQueries || after.FastPathQueries != before.FastPathQueries {
						t.Fatalf("%s %s k=%d did not take the exhaustive path", name, src, k)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s %s model=%d k=%d:\ncandidates %v\nexhaustive %v", name, src, m, k, got, want)
					}
					for i := range want {
						if got[i].Score != want[i].Score {
							t.Fatalf("%s %s model=%d k=%d: score %d differs", name, src, m, k, i)
						}
					}
				}
			}
		}
		if path, err := single.RankedPath(q); err != nil || (declined && !strings.HasSuffix(path, ", candidates)")) {
			t.Fatalf("%s: RankedPath %q, %v: not the candidate loop", src, path, err)
		}
	}
	for _, src := range declined {
		check(src, []int{0, 1, 3, 100}, true)
	}
	for _, src := range eligible {
		check(src, []int{0, -1}, false)
	}
	// The candidate loop scores only candidates, never the whole index.
	before := single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(COMP, declined[0]), TFIDF, 0); err != nil {
		t.Fatal(err)
	}
	after := single.RankedEvalStats()
	if scored := after.ScoredDocs - before.ScoredDocs; scored == 0 || scored >= uint64(single.Docs()) {
		t.Fatalf("candidate loop scored %d of %d documents", scored, single.Docs())
	}
}
