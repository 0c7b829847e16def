package main

import (
	"fmt"
	"math"
	"sort"

	"fulltext"
)

// oracle answers queries in process on the index the server's snapshot
// was written from, with the engines that take no shortcut: the complete
// engine for unranked queries, exhaustive scoring for ranked ones.
type oracle struct {
	ix   *fulltext.ShardedIndex
	docs int // documents in the snapshot; ids at or above are ingested later
	memo map[string][]fulltext.Match
}

func parseOp(o *op) (*fulltext.Query, error) {
	d := map[string]fulltext.Dialect{"bool": fulltext.BOOL, "dist": fulltext.DIST, "comp": fulltext.COMP}[o.Dialect]
	return fulltext.Parse(d, o.Query)
}

func model(rank string) fulltext.ScoringModel {
	if rank == "pra" {
		return fulltext.PRA
	}
	return fulltext.TFIDF
}

// answer evaluates the request in process, once per distinct request: the
// hot workload samples the same 64 queries hundreds of times.
func (or *oracle) answer(o *op) ([]fulltext.Match, error) {
	key := o.key()
	if m, ok := or.memo[key]; ok {
		return m, nil
	}
	q, err := parseOp(o)
	if err != nil {
		return nil, err
	}
	var m []fulltext.Match
	if o.Rank == "" {
		m, err = or.ix.SearchWith(q, fulltext.EngineCOMP)
	} else {
		m, err = or.ix.SearchRankedOpts(q, model(o.Rank), o.Top, fulltext.RankOptions{Exhaustive: true})
	}
	if err == nil {
		or.memo[key] = m
	}
	return m, err
}

// isBase reports whether id names a document of the snapshot.
func (or *oracle) isBase(id string) bool { return docNum(id) < or.docs }

// check compares a server reply with the in-process answer. With mutated
// set, the server was ingesting while it answered: only snapshot
// documents, which are never deleted, are compared, and ranked replies,
// whose scores move with the collection statistics, are checked for shape.
func (or *oracle) check(r *reply, mutated bool) error {
	got := r.Body.Matches
	if r.Body.Count != len(got) {
		return fmt.Errorf("count %d but %d matches", r.Body.Count, len(got))
	}
	if r.Op.Rank != "" && mutated {
		if len(got) > r.Op.Top {
			return fmt.Errorf("%d matches for top=%d", len(got), r.Op.Top)
		}
		for i := 1; i < len(got); i++ {
			if *got[i].Score > *got[i-1].Score {
				return fmt.Errorf("scores not descending at rank %d", i)
			}
		}
		return nil
	}
	want, err := or.answer(&r.Op)
	if err != nil {
		return err
	}
	if r.Op.Rank == "" {
		var g, w []string
		for _, m := range got {
			if !mutated || or.isBase(m.ID) {
				g = append(g, m.ID)
			}
		}
		for _, m := range want {
			w = append(w, m.ID)
		}
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			return fmt.Errorf("%d ids, oracle has %d", len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("id %s, oracle has %s", g[i], w[i])
			}
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d ranked matches, oracle has %d", len(got), len(want))
	}
	// Scores agree rank by rank; ids agree per group of equal scores,
	// except in the last group, which the top-K cut may split either way.
	groups := map[float64][]string{}
	for i, m := range got {
		if m.Score == nil {
			return fmt.Errorf("ranked match %d has no score", i)
		}
		s, w := *m.Score, want[i].Score
		if math.Abs(s-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("rank %d score %v, oracle has %v", i, s, w)
		}
		if w != want[len(want)-1].Score {
			groups[w] = append(groups[w], "s"+m.ID, "o"+want[i].ID)
		}
	}
	for s, ids := range groups {
		sort.Strings(ids) // all "o…" sort before all "s…"
		h := len(ids) / 2
		for i := 0; i < h; i++ {
			if ids[i][1:] != ids[h+i][1:] {
				return fmt.Errorf("score %v: id %s, oracle has %s", s, ids[h+i][1:], ids[i][1:])
			}
		}
	}
	return nil
}
