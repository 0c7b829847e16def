package fulltext

// Block-max WAND edge cases: block boundaries under several block sizes
// (including the degenerate one-entry and one-block extremes), whole
// tombstoned blocks, K exceeding the surviving documents, stats-block
// adoption across stats-neutral mutations, the legacy FTSS v3 stream, and
// a -race stress mix of mutations with block-max queries.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// blockSizesUnderTest covers the degenerate extremes and two sizes that cut
// the small corpus's posting lists at different entry boundaries: size 1
// makes every entry its own block, 1<<20 collapses every list to a single
// block (per-list bounds only), and 2/4 put documents exactly on block
// edges for several lists of wandCorpus.
var blockSizesUnderTest = []int{1, 2, 4, 1 << 20}

func blockmaxQueries() []*Query {
	return append(positionalQueries(),
		MustParse(BOOL, `'tie'`),
		MustParse(BOOL, `'alpha' OR 'beta'`),
		MustParse(BOOL, `'rare' OR 'alpha' OR 'gamma'`),
		MustParse(BOOL, `'alpha' AND NOT 'beta'`),
		MustParse(BOOL, `('alpha' OR 'delta') AND NOT 'rare'`),
	)
}

// checkRankedEquivalence compares the fast path against exhaustive
// evaluation on the same index, exact IDs and scores.
func checkRankedEquivalence(t *testing.T, label string, six *ShardedIndex, q *Query, m ScoringModel, k int) {
	t.Helper()
	want, err := six.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", label, err)
	}
	got, err := six.SearchRanked(q, m, k)
	if err != nil {
		t.Fatalf("%s: wand: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %v want %v", label, ids(got), ids(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBlockMaxBoundaryEdgeCases runs the equivalence check across block
// sizes that place documents exactly on block edges, for K values that cut
// through the tie groups of wandCorpus.
func TestBlockMaxBoundaryEdgeCases(t *testing.T) {
	docs := wandCorpus()
	for _, bs := range blockSizesUnderTest {
		sb := NewShardedBuilder(3)
		for _, d := range docs {
			if err := sb.Add(d.id, d.text); err != nil {
				t.Fatal(err)
			}
		}
		six := sb.Build()
		six.SetQueryCacheSize(0)
		six.SetStatsBlockSize(bs)
		for _, q := range blockmaxQueries() {
			for _, m := range []ScoringModel{TFIDF, PRA} {
				for _, k := range []int{1, 2, 3, 5, 100} {
					label := fmt.Sprintf("bs=%d %s model=%d k=%d", bs, q, m, k)
					checkRankedEquivalence(t, label, six, q, m, k)
				}
			}
		}
	}
}

// TestBlockMaxTombstonedBlocks deletes the whole tie group (a contiguous
// block at small block sizes) plus most alpha documents, leaving lists with
// fully tombstoned blocks and fewer survivors than K, and requires the
// block-skipping path to stay byte-identical to exhaustive evaluation.
func TestBlockMaxTombstonedBlocks(t *testing.T) {
	docs := wandCorpus()
	for _, bs := range blockSizesUnderTest {
		sb := NewShardedBuilder(3)
		for _, d := range docs {
			if err := sb.Add(d.id, d.text); err != nil {
				t.Fatal(err)
			}
		}
		six := sb.Build()
		six.SetQueryCacheSize(0)
		six.SetStatsBlockSize(bs)
		for _, id := range []string{"d07", "d08", "d09", "d01", "d02", "d04", "d06"} {
			if !six.Delete(id) {
				t.Fatalf("bs=%d: delete %s failed", bs, id)
			}
		}
		// 'tie' occurs only in the deleted documents: its every block is
		// fully tombstoned and the query has zero survivors.
		if ms, err := six.SearchRanked(MustParse(BOOL, `'tie'`), TFIDF, 5); err != nil {
			t.Fatal(err)
		} else if len(ms) != 0 {
			t.Fatalf("bs=%d: tombstoned 'tie' docs still returned: %v", bs, ids(ms))
		}
		for _, q := range blockmaxQueries() {
			for _, m := range []ScoringModel{TFIDF, PRA} {
				for _, k := range []int{1, 3, 100} {
					label := fmt.Sprintf("tombstoned bs=%d %s model=%d k=%d", bs, q, m, k)
					checkRankedEquivalence(t, label, six, q, m, k)
				}
			}
		}
	}
}

// TestBlockMaxMultiSegmentLayouts runs the equivalence check on shards
// that hold a base segment, delta segments from live adds, and tombstones
// in both — the layout a serving index is in between merges — and requires
// every proximity query to have been served by the fast path.
func TestBlockMaxMultiSegmentLayouts(t *testing.T) {
	docs := wandCorpus()
	for _, bs := range blockSizesUnderTest {
		sb := NewShardedBuilder(2)
		for _, d := range docs[:10] {
			if err := sb.Add(d.id, d.text); err != nil {
				t.Fatal(err)
			}
		}
		six := sb.Build()
		six.SetQueryCacheSize(0)
		six.SetStatsBlockSize(bs)
		for _, d := range docs[10:] {
			if err := six.Add(d.id, d.text); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"d02", "d13", "d22"} {
			if !six.Delete(id) {
				t.Fatalf("bs=%d: delete %s failed", bs, id)
			}
		}
		six.WaitMerges()
		segs := 0
		for _, sh := range six.SegmentStats().Shards {
			segs += sh.Segments
		}
		if segs <= six.Shards() {
			t.Fatalf("bs=%d: %d segments over %d shards: the layout is not multi-segment", bs, segs, six.Shards())
		}
		before := six.RankedEvalStats()
		for _, q := range positionalQueries() {
			for _, m := range []ScoringModel{TFIDF, PRA} {
				for _, k := range []int{1, 10, 100} {
					got, err := six.SearchRanked(q, m, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := six.SearchRankedOpts(q, m, k, RankOptions{Exhaustive: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("segments bs=%d %s model=%d k=%d: got %v want %v", bs, q, m, k, ids(got), ids(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("segments bs=%d %s model=%d k=%d: position %d got %+v want %+v", bs, q, m, k, i, got[i], want[i])
						}
					}
				}
			}
		}
		after := six.RankedEvalStats()
		if after.FastPathQueries == before.FastPathQueries || after.ExhaustiveQueries-before.ExhaustiveQueries != after.FastPathQueries-before.FastPathQueries {
			t.Fatalf("bs=%d: proximity queries fell back: %+v -> %+v", bs, before, after)
		}
	}
}

// TestStatsBlockAdoptionAfterNeutralMutation is the regression test for
// segment-scoped statistics invalidation: a delete followed by re-adding
// the same content rolls the shared statistics identity twice but leaves
// every df and the collection size unchanged, so untouched segments must
// adopt their previous blocks by fingerprint instead of recomputing. Only
// the new delta segment may pay a build pass.
func TestStatsBlockAdoptionAfterNeutralMutation(t *testing.T) {
	sb := NewShardedBuilder(2)
	for _, d := range wandCorpus() {
		if err := sb.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	six := sb.Build()
	six.SetQueryCacheSize(0)
	q := MustParse(BOOL, `'alpha' OR 'beta'`)
	if _, err := six.SearchRanked(q, TFIDF, 5); err != nil {
		t.Fatal(err)
	}
	base := six.StatsBlockBuilds()

	if !six.Delete("d06") {
		t.Fatal("delete d06 failed")
	}
	if err := six.Add("d06", "alpha beta alpha beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := six.SearchRanked(q, TFIDF, 5); err != nil {
		t.Fatal(err)
	}
	delta := six.StatsBlockBuilds() - base
	if delta != 1 {
		t.Fatalf("stats-neutral mutation caused %d statistics rebuilds, want 1 (the new delta segment only)", delta)
	}
	checkRankedEquivalence(t, "post-adoption", six, q, TFIDF, 5)
}

// TestShardedLegacyV3StreamLoads fabricates a version-3 FTSS stream (the
// pre-block-section segmented layout), loads it, and requires identical
// ranked results plus lazily synthesized block directories on first
// statistics access.
func TestShardedLegacyV3StreamLoads(t *testing.T) {
	_, sharded := buildWandIndexes(t)
	six := sharded[1] // 3 shards
	q := MustParse(BOOL, `'rare' OR 'alpha'`)
	want, err := six.SearchRanked(q, TFIDF, 5)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := six.writeToLockedVersion(&buf, 3); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShardedIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SearchRanked(q, TFIDF, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy v3 load ranked %v, want %v", got, want)
		}
	}
	for i := range loaded.shards {
		blk := loaded.shards[i][0].ix.inv.StatsBlock(loaded.cstats)
		if blk.Blocks == nil || blk.BlockSize <= 0 {
			t.Fatalf("shard %d: v3-loaded statistics block did not synthesize its block directory (size %d)", i, blk.BlockSize)
		}
	}
}

// TestBlockMaxConcurrentMutationStress mixes adds and deletes with
// block-max ranked queries under the race detector. Queries must never
// error and must stay sorted; the race detector covers the block metadata
// lifecycle across delta appends, tombstones, and background merges.
func TestBlockMaxConcurrentMutationStress(t *testing.T) {
	sb := NewShardedBuilder(4)
	for i := 0; i < 120; i++ {
		body := "needle filler"
		if i%10 == 0 {
			body = "needle needle needle hot"
		}
		if err := sb.Add(fmt.Sprintf("seed-%d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	six := sb.Build()
	six.SetQueryCacheSize(0)
	six.SetStatsBlockSize(2)

	q := MustParse(BOOL, `'needle' OR 'hot'`)
	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := six.Add(fmt.Sprintf("live-%d", i), "needle hot churn"); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				six.Delete(fmt.Sprintf("seed-%d", i%120))
				six.Delete(fmt.Sprintf("live-%d", i/2))
			}
		}
	}()

	var qs sync.WaitGroup
	for g := 0; g < 3; g++ {
		qs.Add(1)
		go func() {
			defer qs.Done()
			for i := 0; i < 150; i++ {
				ms, err := six.SearchRanked(q, TFIDF, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(ms); j++ {
					if ms[j-1].Score < ms[j].Score {
						t.Errorf("unsorted ranked results: %v", ms)
						return
					}
				}
			}
		}()
	}
	qs.Wait()
	close(stop)
	mut.Wait()
	six.WaitMerges()
	checkRankedEquivalence(t, "post-stress", six, q, TFIDF, 10)
}
