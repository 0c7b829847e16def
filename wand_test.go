package fulltext

// Equivalence matrix for the ranked top-K fast path: the WAND evaluator
// must return byte-identical results AND scores to the exhaustive
// complete-engine scan across all three dialects, both scoring models,
// single and sharded indexes, every K — including K values that cut
// through exact score ties (duplicate documents) at the boundary.

import (
	"bytes"
	"fmt"
	"testing"
)

// wandCorpus is built for adversarial ranking: common and rare tokens,
// multi-token overlaps, and exact duplicates (d07/d08/d09 and d14/d15) so
// score ties are guaranteed at several K boundaries. d21-d24 span
// sentences and paragraphs and repeat tokens, so position predicates have
// something to reject and PRA leaves aggregate several tuples.
func wandCorpus() []struct{ id, text string } {
	return []struct{ id, text string }{
		{"d01", "alpha beta gamma delta"},
		{"d02", "alpha alpha beta filler one two"},
		{"d03", "beta gamma filler three"},
		{"d04", "alpha rare beta"},
		{"d05", "gamma delta filler four five six"},
		{"d06", "alpha beta alpha beta"},
		{"d07", "alpha gamma tie tie"},
		{"d08", "alpha gamma tie tie"},
		{"d09", "alpha gamma tie tie"},
		{"d10", "rare rare alpha"},
		{"d11", "filler seven eight nine ten"},
		{"d12", "delta delta beta"},
		{"d13", "alpha beta gamma delta rare"},
		{"d14", "beta delta dup"},
		{"d15", "beta delta dup"},
		{"d16", "gamma gamma gamma alpha"},
		{"d17", "alpha filler eleven"},
		{"d18", "beta filler twelve"},
		{"d19", "alpha beta gamma"},
		{"d20", "rare delta"},
		{"d21", "alpha beta. gamma delta\n\nalpha filler beta gamma"},
		{"d22", "beta alpha gamma\n\ndelta alpha"},
		{"d23", "gamma filler filler filler alpha beta"},
		{"d24", "alpha alpha alpha beta beta gamma gamma"},
	}
}

func buildWandIndexes(t testing.TB) (*Index, []*ShardedIndex) {
	t.Helper()
	docs := wandCorpus()
	b := NewBuilder()
	for _, d := range docs {
		if err := b.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	var sharded []*ShardedIndex
	for _, n := range []int{1, 3} {
		sb := NewShardedBuilder(n)
		for _, d := range docs {
			if err := sb.Add(d.id, d.text); err != nil {
				t.Fatal(err)
			}
		}
		six := sb.Build()
		six.SetQueryCacheSize(0)
		// A tiny block size forces multi-block posting lists on this small
		// corpus, so the matrix exercises block-max skipping and block
		// boundary handling, not just the single-block degenerate case.
		six.SetStatsBlockSize(3)
		sharded = append(sharded, six)
	}
	single := b.Build()
	single.SetStatsBlockSize(3)
	return single, sharded
}

// positionalQueries are the proximity shapes the fast path serves: HAS
// atoms drive the cursors, the predicates filter the survivors.
func positionalQueries() []*Query {
	return []*Query{
		MustParse(DIST, `dist('alpha','beta',2)`),
		MustParse(DIST, `dist('alpha','beta',0)`),
		MustParse(DIST, `'gamma' AND dist('alpha','beta',3)`),
		MustParse(DIST, `'alpha beta'`),
		MustParse(DIST, `dist('alpha','alpha',1)`), // one token in two HAS slots
		MustParse(DIST, `dist('alpha','beta',1) AND NOT 'rare'`),
		MustParse(DIST, `dist('alpha','beta',1) OR dist('gamma','delta',1)`),
		MustParse(DIST, `dist('alpha','missing',4)`),
		MustParse(COMP, `SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND distance(p1,p2,2) AND ordered(p1,p2))`),
		MustParse(COMP, `SOME p1 SOME p2 SOME p3 (p1 HAS 'alpha' AND p2 HAS 'beta' AND p3 HAS 'gamma' AND samepara(p1,p2) AND distance(p2,p3,2))`),
		MustParse(COMP, `SOME p1 SOME p2 SOME p3 (p1 HAS 'alpha' AND p2 HAS 'beta' AND p3 HAS 'gamma' AND window3(p1,p2,p3,4) AND ordered(p1,p2) AND samepara(p1,p3))`),
		MustParse(COMP, `SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND not_distance(p1,p2,1))`),
		MustParse(COMP, `SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'gamma' AND NOT samesent(p1,p2))`), // desugars to not_samesent
		MustParse(COMP, `SOME p (p HAS 'rare' OR p HAS 'dup')`),
		MustParse(COMP, `SOME p1 (p1 HAS 'alpha' AND NOT SOME p2 (p2 HAS 'beta' AND distance(p1,p2,1)))`),
	}
}

// wandMatrixQueries returns the query matrix: eligible fast-path queries
// and fallback queries per dialect.
func wandMatrixQueries() []*Query {
	return append(positionalQueries(),
		// BOOL: eligible positive token combinations.
		MustParse(BOOL, `'alpha'`),
		MustParse(BOOL, `'rare'`),
		MustParse(BOOL, `'alpha' AND 'beta'`),
		MustParse(BOOL, `'alpha' OR 'beta'`),
		MustParse(BOOL, `('alpha' OR 'beta') AND 'gamma'`),
		MustParse(BOOL, `'alpha' AND ('beta' OR 'delta')`),
		MustParse(BOOL, `'rare' OR 'alpha'`),
		MustParse(BOOL, `'alpha' AND 'alpha'`),
		MustParse(BOOL, `'missing' OR 'alpha'`),
		MustParse(BOOL, `'alpha' AND 'missing'`),
		MustParse(BOOL, `('alpha' AND 'beta') OR ('gamma' AND 'delta')`),
		// BOOL: eligible grounded negation (NOT under a positively grounded
		// conjunction runs on the fast path via complement cursors).
		MustParse(BOOL, `'alpha' AND NOT 'beta'`),
		MustParse(BOOL, `('alpha' OR 'gamma') AND NOT 'rare'`),
		MustParse(BOOL, `'alpha' AND NOT ('beta' AND 'gamma')`),
		MustParse(BOOL, `'alpha' AND NOT 'missing'`),
		MustParse(BOOL, `'alpha' AND NOT 'alpha'`),
		MustParse(BOOL, `('delta' AND NOT 'dup') OR 'rare'`),
		// BOOL: fallback (ungrounded negation, ANY).
		MustParse(BOOL, `NOT 'alpha'`),
		MustParse(BOOL, `ANY AND 'rare'`),
		MustParse(DIST, `'beta' OR 'delta'`),
		MustParse(COMP, `'alpha' OR 'gamma'`),
		MustParse(COMP, `SOME p (p HAS 'alpha' AND p HAS 'alpha')`),
		// COMP: fallback (EVERY, a variable over all positions, OR over
		// different variables).
		MustParse(COMP, `'alpha' AND EVERY p (NOT p HAS 'rare')`),
		MustParse(DIST, `dist('rare',ANY,1)`),
		MustParse(COMP, `SOME p1 SOME p2 ((p1 HAS 'rare' OR p2 HAS 'dup') AND distance(p1,p2,1))`),
	)
}

// TestWandEquivalenceMatrix cross-checks the fast path against the
// exhaustive evaluator over the full matrix. Scores must be exactly equal
// (==, not approximately): the fast path runs the same per-node evaluation
// and may only skip nodes that provably cannot enter the top K.
func TestWandEquivalenceMatrix(t *testing.T) {
	single, sharded := buildWandIndexes(t)
	models := []ScoringModel{TFIDF, PRA}
	ks := []int{1, 2, 3, 4, 5, 7, 10, 100}
	for _, q := range wandMatrixQueries() {
		for _, m := range models {
			for _, k := range ks {
				want, err := single.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
				if err != nil {
					t.Fatalf("%s model=%d k=%d exhaustive: %v", q, m, k, err)
				}
				check := func(label string, got []Match, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s model=%d k=%d %s: %v", q, m, k, label, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s model=%d k=%d %s: got %v want %v", q, m, k, label, ids(got), ids(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
							t.Fatalf("%s model=%d k=%d %s: position %d got {%s %v} want {%s %v}\n got: %v\nwant: %v",
								q, m, k, label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score, got, want)
						}
					}
				}
				got, err := single.SearchRanked(q, m, k)
				check("single/wand", got, err)
				for _, six := range sharded {
					label := fmt.Sprintf("sharded-%d/wand", six.Shards())
					got, err = six.SearchRanked(q, m, k)
					check(label, got, err)
					got, err = six.SearchRankedOpts(q, m, k, RankOptions{NoThresholdSharing: true})
					check(label+"/noshare", got, err)
					got, err = six.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
					check(label+"/exhaustive", got, err)
				}
			}
		}
	}
}

// TestWandTieBreakAtBoundary pins the tie-breaking contract: duplicate
// documents score identically, and K cutting through the tie group must
// keep insertion order (earlier document wins), on both paths.
func TestWandTieBreakAtBoundary(t *testing.T) {
	single, sharded := buildWandIndexes(t)
	q := MustParse(BOOL, `'tie'`) // d07, d08, d09 are identical
	for _, k := range []int{1, 2, 3} {
		want, err := single.SearchRankedOpts(q, TFIDF, k, RankOptions{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != k {
			t.Fatalf("k=%d: expected %d tie matches, got %v", k, k, ids(want))
		}
		for i, id := range []string{"d07", "d08", "d09"}[:k] {
			if want[i].ID != id {
				t.Fatalf("k=%d: exhaustive tie order %v, want d07,d08,d09 prefix", k, ids(want))
			}
		}
		got, err := single.SearchRanked(q, TFIDF, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: wand %v, exhaustive %v", k, got, want)
			}
		}
		for _, six := range sharded {
			got, err := six.SearchRanked(q, TFIDF, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d sharded-%d: %v, want %v", k, six.Shards(), got, want)
				}
			}
		}
	}
}

// TestWandFastPathEngages asserts the fast path actually serves eligible
// queries (the equivalence matrix alone would pass if everything silently
// fell back) and that upper-bound pruning scores fewer documents than
// match the query.
func TestWandFastPathEngages(t *testing.T) {
	single, _ := buildWandIndexes(t)

	before := single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(BOOL, `'rare' OR 'alpha'`), TFIDF, 1); err != nil {
		t.Fatal(err)
	}
	after := single.RankedEvalStats()
	if after.FastPathQueries != before.FastPathQueries+1 {
		t.Fatalf("eligible query did not take the fast path: %+v -> %+v", before, after)
	}
	matches, err := single.SearchRankedOpts(MustParse(BOOL, `'rare' OR 'alpha'`), TFIDF, 0, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scored := after.ScoredDocs - before.ScoredDocs
	if scored >= uint64(len(matches)) {
		t.Fatalf("top-1 fast path scored %d docs, expected fewer than the %d matches (no pruning happened)", scored, len(matches))
	}

	// Grounded negation is eligible: NOT under a positive conjunction must
	// engage the fast path via complement cursors, not fall back.
	before = single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(BOOL, `'alpha' AND NOT 'beta'`), TFIDF, 2); err != nil {
		t.Fatal(err)
	}
	after = single.RankedEvalStats()
	if after.FastPathQueries != before.FastPathQueries+1 {
		t.Fatalf("grounded NOT query did not take the fast path: %+v -> %+v", before, after)
	}

	// Proximity queries are eligible: the HAS tokens' cursors intersect, so
	// the fast path surfaces only documents holding both words, not all 24.
	for _, q := range positionalQueries() {
		before = single.RankedEvalStats()
		if _, err := single.SearchRanked(q, PRA, 3); err != nil {
			t.Fatal(err)
		}
		after = single.RankedEvalStats()
		if after.FastPathQueries != before.FastPathQueries+1 || after.ExhaustiveQueries != before.ExhaustiveQueries {
			t.Fatalf("%s did not take the fast path: %+v -> %+v", q, before, after)
		}
		if path, err := single.RankedPath(q); err != nil || path != "wand" {
			t.Fatalf("%s: RankedPath = %q, %v, want wand", q, path, err)
		}
	}
	before = single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(DIST, `dist('rare','dup',3)`), TFIDF, 3); err != nil {
		t.Fatal(err)
	}
	if after = single.RankedEvalStats(); after.CandidateDocs != before.CandidateDocs {
		t.Fatalf("dist over two words no document shares surfaced %d candidates", after.CandidateDocs-before.CandidateDocs)
	}

	// Ineligible query: must fall back and say so.
	before = single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(BOOL, `NOT 'alpha'`), TFIDF, 3); err != nil {
		t.Fatal(err)
	}
	after = single.RankedEvalStats()
	if after.ExhaustiveQueries != before.ExhaustiveQueries+1 {
		t.Fatalf("NOT query did not fall back to the exhaustive engine: %+v -> %+v", before, after)
	}

	for src, want := range map[string]string{
		`NOT 'alpha'`:                          "exhaustive (free-not)",
		`EVERY p (p HAS 'alpha')`:              "exhaustive (every)",
		`'alpha' AND EVERY p (NOT p HAS 'x')`:  "exhaustive (every, candidates)",
		`dist('alpha',ANY,2)`:                  "exhaustive (unbound-pred, candidates)",
		`SOME p (p HAS ANY AND p HAS 'alpha')`: "exhaustive (has-any, candidates)",
	} {
		if path, err := single.RankedPath(MustParse(COMP, src)); err != nil || path != want {
			t.Fatalf("%s: RankedPath = %q, %v, want %q", src, path, err, want)
		}
	}

	// topK <= 0 always takes the exhaustive path.
	before = single.RankedEvalStats()
	if _, err := single.SearchRanked(MustParse(BOOL, `'alpha'`), TFIDF, 0); err != nil {
		t.Fatal(err)
	}
	after = single.RankedEvalStats()
	if after.ExhaustiveQueries != before.ExhaustiveQueries+1 {
		t.Fatalf("topK=0 did not use the exhaustive engine: %+v -> %+v", before, after)
	}
}

// TestWandCustomPredicateIsAFilter: a registered predicate is a selection
// like any other, so a ranked query using one keeps the fast path.
func TestWandCustomPredicateIsAFilter(t *testing.T) {
	single, sharded := buildWandIndexes(t)
	evenGap := func(ords []int32, _ []int) bool { return (ords[0]-ords[1])%2 == 0 }
	if err := single.RegisterPredicate("evengap", 2, 0, evenGap); err != nil {
		t.Fatal(err)
	}
	six := sharded[1]
	if err := six.RegisterPredicate("evengap", 2, 0, evenGap); err != nil {
		t.Fatal(err)
	}
	q := MustParse(COMP, `SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'gamma' AND evengap(p1,p2))`)
	if path, err := single.RankedPath(q); err != nil || path != "wand" {
		t.Fatalf("RankedPath = %q, %v, want wand", path, err)
	}
	for _, m := range []ScoringModel{TFIDF, PRA} {
		for _, k := range []int{1, 4, 100} {
			want, err := single.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			if k == 100 && len(want) == 0 {
				t.Fatal("the custom predicate matches nothing: the test is vacuous")
			}
			got, err := single.SearchRanked(q, m, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("model=%d k=%d: wand %v, exhaustive %v", m, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("model=%d k=%d: wand %v, exhaustive %v", m, k, got, want)
				}
			}
			checkRankedEquivalence(t, fmt.Sprintf("custom model=%d k=%d", m, k), six, q, m, k)
		}
	}
}

// TestShardedRoundTripStatsBlocks asserts FTSS v2 persists each shard's
// global-statistics block: the loaded index serves ranked queries with
// bit-identical statistics (and therefore scores) to the saved one, keyed
// by the new container's shared statistics identity.
func TestShardedRoundTripStatsBlocks(t *testing.T) {
	_, sharded := buildWandIndexes(t)
	six := sharded[1] // 3 shards
	q := MustParse(BOOL, `'rare' OR 'alpha'`)
	want, err := six.SearchRanked(q, TFIDF, 5) // also warms the blocks pre-save
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := six.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	loaded, err := ReadShardedIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range loaded.shards {
		got := loaded.shards[i][0].ix.inv.StatsBlock(loaded.cstats)
		ref := six.shards[i][0].ix.inv.StatsBlock(six.cstats)
		if len(got.Norms) != len(ref.Norms) {
			t.Fatalf("shard %d: %d norms, want %d", i, len(got.Norms), len(ref.Norms))
		}
		for j := range ref.Norms {
			if got.Norms[j] != ref.Norms[j] {
				t.Fatalf("shard %d norm[%d] = %g, want %g (bit-identical)", i, j, got.Norms[j], ref.Norms[j])
			}
		}
		for tok, v := range ref.MaxTFNorm {
			if got.MaxTFNorm[tok] != v || got.MaxOcc[tok] != ref.MaxOcc[tok] {
				t.Fatalf("shard %d token %q: block (%g,%d), want (%g,%d)", i, tok,
					got.MaxTFNorm[tok], got.MaxOcc[tok], v, ref.MaxOcc[tok])
			}
		}
		// FTSS v4 also persists the per-block directories: same size, same
		// per-token block metadata, bit for bit.
		if got.BlockSize != ref.BlockSize {
			t.Fatalf("shard %d block size %d, want %d", i, got.BlockSize, ref.BlockSize)
		}
		for tok, refMetas := range ref.Blocks {
			gotMetas := got.Blocks[tok]
			if len(gotMetas) != len(refMetas) {
				t.Fatalf("shard %d token %q: %d blocks, want %d", i, tok, len(gotMetas), len(refMetas))
			}
			for j := range refMetas {
				if gotMetas[j] != refMetas[j] {
					t.Fatalf("shard %d token %q block %d = %+v, want %+v", i, tok, j, gotMetas[j], refMetas[j])
				}
			}
		}
	}
	got, err := loaded.SearchRanked(q, TFIDF, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded ranked %v, want %v", got, want)
		}
	}

	// A truncated stats block must be a load error, not silently ignored.
	if _, err := ReadShardedIndex(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("truncated sharded stream must fail to load")
	}
}

// TestShardedThresholdSharingCounters asserts the shared-threshold fan-out
// never scores more documents than the isolated one on the same query, and
// that the counter is exposed through ShardedIndex.RankedEvalStats.
func TestShardedThresholdSharingCounters(t *testing.T) {
	_, sharded := buildWandIndexes(t)
	six := sharded[1] // 3 shards
	q := MustParse(BOOL, `'rare' OR 'alpha' OR 'beta'`)

	before := six.RankedEvalStats()
	if _, err := six.SearchRankedOpts(q, TFIDF, 2, RankOptions{NoThresholdSharing: true}); err != nil {
		t.Fatal(err)
	}
	mid := six.RankedEvalStats()
	if _, err := six.SearchRanked(q, TFIDF, 2); err != nil {
		t.Fatal(err)
	}
	after := six.RankedEvalStats()

	isolated := mid.ScoredDocs - before.ScoredDocs
	shared := after.ScoredDocs - mid.ScoredDocs
	if mid.FastPathQueries-before.FastPathQueries == 0 {
		t.Fatal("sharded ranked query did not take the fast path")
	}
	if shared > isolated {
		t.Fatalf("threshold sharing scored MORE docs (%d) than isolated shards (%d)", shared, isolated)
	}
}
