package main

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"strings"
)

// op is one request of a workload's stream.
type op struct {
	Kind string // "search", "add" or "delete"
	// search
	Class   string // template class: bool, ppred, npred, comp, ranked
	Dialect string // bool, dist or comp
	Query   string
	Rank    string // "", tfidf or pra
	Top     int
	// add / delete
	Docs []doc
	IDs  []string
	body []byte // the request body, encoded by writeOps before any phase runs
}

// key identifies a search request: two requests with the same key are the
// same query to the server's result cache.
func (o *op) key() string {
	return fmt.Sprintf("%s|%s|%d|%s", o.Dialect, o.Rank, o.Top, o.Query)
}

// target returns the method, path and body of the request on ftserve.
func (o *op) target() (method, path string, body []byte) {
	switch o.Kind {
	case "search":
		v := url.Values{"q": {o.Query}, "lang": {o.Dialect}}
		if o.Rank != "" {
			v.Set("rank", o.Rank)
			v.Set("top", fmt.Sprint(o.Top))
		}
		return "GET", "/search?" + v.Encode(), nil
	case "add":
		return "POST", "/docs/batch", o.body
	default:
		return "POST", "/docs/delete-batch", o.body
	}
}

// addBody and deleteBody encode the write requests. Ids and bodies hold
// only letters, digits, '.', ' ' and '\n'.
func addBody(docs []doc) []byte {
	var sb strings.Builder
	sb.WriteString(`{"docs":[`)
	for i, d := range docs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%q,"body":%q}`, d.ID, d.Body)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

func deleteBody(ids []string) []byte {
	var sb strings.Builder
	sb.WriteString(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q", id)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// template is one query shape. Slots A..D are filled with planted tokens of
// the listed tiers (one letter per slot: h, m or l; see tiers), K with a
// distance bound. The tiers are the calibration: a shape whose cost grows
// with posting length or corpus size is narrowed to rarer tokens until one
// query stays far below the run length (see README, "Calibration").
type template struct {
	Class   string
	Dialect string
	Text    string
	Tiers   string // candidate tiers of every slot, e.g. "hml"
}

// classTemplates are the unranked shapes of the classes workload: toks_Q
// 2-4 and preds_Q 1-3 as in Figures 5-8, positive predicates for PPRED,
// at least one negative predicate for NPRED, and for COMP the constructs
// only the complete engine evaluates (EVERY, HAS ANY, NOT over an open
// subquery, OR over different variables).
var classTemplates = []template{
	{"bool", "bool", "'A' AND 'B'", "hml"},
	{"bool", "bool", "'A' AND 'B' AND 'C'", "hml"},
	{"bool", "bool", "('A' OR 'B') AND 'C'", "hml"},
	{"bool", "bool", "'A' AND NOT 'B'", "hml"},
	{"bool", "bool", "'A' OR 'B' OR 'C' OR 'D'", "hml"},
	{"bool", "bool", "'A' AND ('B' OR NOT 'C')", "hml"},

	{"ppred", "comp", "SOME p1 SOME p2 (p1 HAS 'A' AND p2 HAS 'B' AND distance(p1,p2,K))", "hml"},
	{"ppred", "comp", "SOME p1 SOME p2 (p1 HAS 'A' AND p2 HAS 'B' AND distance(p1,p2,K) AND ordered(p1,p2))", "hml"},
	{"ppred", "comp", "SOME p1 SOME p2 SOME p3 (p1 HAS 'A' AND p2 HAS 'B' AND p3 HAS 'C' AND samepara(p1,p2) AND distance(p2,p3,K))", "hml"},
	{"ppred", "dist", "dist('A','B',K)", "hml"},
	{"ppred", "dist", "'C' AND dist('A','B',K)", "hml"},
	{"ppred", "comp", "SOME p1 SOME p2 SOME p3 (p1 HAS 'A' AND p2 HAS 'B' AND p3 HAS 'C' AND window3(p1,p2,p3,K) AND ordered(p1,p2) AND samepara(p1,p3))", "hml"},

	{"npred", "comp", "SOME p1 SOME p2 (p1 HAS 'A' AND p2 HAS 'B' AND not_distance(p1,p2,K))", "hml"},
	{"npred", "comp", "SOME p1 SOME p2 (p1 HAS 'A' AND p2 HAS 'B' AND ordered(p1,p2) AND not_samesent(p1,p2))", "hml"},
	{"npred", "comp", "SOME p1 SOME p2 SOME p3 (p1 HAS 'A' AND p2 HAS 'B' AND p3 HAS 'C' AND distance(p1,p2,K) AND not_ordered(p2,p3))", "hml"},
	{"npred", "comp", "SOME p1 SOME p2 SOME p3 SOME p4 (p1 HAS 'A' AND p2 HAS 'B' AND p3 HAS 'C' AND p4 HAS 'D' AND not_distance(p1,p2,K) AND not_samepara(p3,p4) AND ordered(p1,p3))", "hml"},

	{"comp", "comp", "'A' AND EVERY p (NOT p HAS 'B')", "l"},
	{"comp", "comp", "SOME p1 (p1 HAS 'A' AND NOT SOME p2 (p2 HAS 'B' AND distance(p1,p2,K)))", "l"},
	{"comp", "comp", "'C' AND EVERY p1 (NOT p1 HAS 'A' OR SOME p2 (p2 HAS 'B' AND distance(p1,p2,K)))", "l"},
	{"comp", "comp", "'B' AND SOME p1 SOME p2 (p1 HAS 'A' AND p2 HAS ANY AND distance(p1,p2,0) AND ordered(p1,p2))", "l"},
	{"comp", "comp", "SOME p1 SOME p2 ((p1 HAS 'A' OR p2 HAS 'B') AND distance(p1,p2,K))", "l"},
}

// classPattern is the repeating class order of the classes workload: four
// BOOL, three PPRED, two NPRED and one COMP query in every ten. A fixed
// order, with the template cycling within its class, keeps the mix - and
// so the cost of a phase - the same for every seed; the seed picks the
// tokens.
const classPattern = "bpnbpcbnpb"

// fill instantiates a template with planted tokens, distinct per slot.
// The tiers of the slots rotate with turn, the count of earlier uses of
// the template, so that the posting lengths a phase meets do not depend on
// the seed; the seed picks the token within the tier.
func (t template) fill(r *rng, turn int) string {
	s := t.Text
	used := map[string]bool{}
	for i, slot := range []string{"A", "B", "C", "D"} {
		if !strings.Contains(s, "'"+slot+"'") {
			continue
		}
		tier := strings.IndexByte("hml", t.Tiers[(turn+i)%len(t.Tiers)])
		var tok string
		for tok == "" || used[tok] {
			tok = planted(tier, r.intn(perTier))
		}
		used[tok] = true
		s = strings.ReplaceAll(s, "'"+slot+"'", "'"+tok+"'")
	}
	return strings.ReplaceAll(s, "K", fmt.Sprint(2+r.intn(30)))
}

// stream yields the requests of one workload in order; the same seed
// yields the same requests.
type stream struct {
	next func() op
}

// take returns the next n requests.
func (s *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// unique wraps a query generator so that no query repeats: the server's
// 256-entry result cache must miss on every request of the stream. undo
// takes the generator back one step, so that a repeated query is drawn
// again in the same place of the pattern.
func unique(gen func() op, undo func()) func() op {
	seen := map[string]bool{}
	return func() op {
		for tries := 0; tries < 10000; tries++ {
			o := gen()
			if key := o.key(); !seen[key] {
				seen[key] = true
				return o
			}
			undo()
		}
		panic("benchmark: a query shape has run out of distinct instances; give its template more slots")
	}
}

// classesStream is the unranked mix over the paper's four classes.
func classesStream(seed uint64) *stream {
	r := newRNG(seed ^ 0xC1A55E5)
	byClass := map[byte][]template{}
	for _, t := range classTemplates {
		byClass[t.Class[0]] = append(byClass[t.Class[0]], t)
	}
	i, turn := 0, map[byte]int{}
	return &stream{next: unique(func() op {
		c := classPattern[i%len(classPattern)]
		i++
		ts := byClass[c]
		t := ts[turn[c]%len(ts)]
		turn[c]++
		// Every template meets every rotation of its tiers in turn.
		return op{Kind: "search", Class: t.Class, Dialect: t.Dialect, Query: t.fill(r, turn[c]/len(ts))}
	}, func() { i--; turn[classPattern[i%len(classPattern)]]-- })}
}

// Ranked workload shape: tokens are background words whose vocabulary rank
// is drawn with probability 1/rank from [rankLo, rankHi]. One query in ten
// is a dist() proximity query, which ranking evaluates exhaustively; three
// in twenty carry a grounded NOT. Scoring model, top and token count cycle,
// so that every 48 consecutive requests hold the same combinations.
const (
	rankLo      = 30
	rankHi      = 5000
	distRankLo  = 100
	maxRankToks = 4
)

// rankedStream is top-K ranked retrieval over the Zipf vocabulary.
func rankedStream(seed uint64) *stream {
	r := newRNG(seed ^ 0x7A2CED)
	z := newZipf(rankHi)
	sp := newSpreader(r)
	word := func(lo int) string {
		for {
			if k := z.at(sp.next()); k >= lo {
				return fmt.Sprintf("w%d", k)
			}
		}
	}
	tops := []int{1, 10, 100}
	i := 0
	return &stream{next: unique(func() op {
		o := op{Kind: "search", Class: "ranked", Rank: []string{"tfidf", "pra"}[i%2], Top: tops[i/2%3]}
		switch {
		case i%10 == 4:
			o.Dialect = "dist"
			o.Query = fmt.Sprintf("dist('%s','%s',%d)", word(distRankLo), word(distRankLo), 2+r.intn(10))
		default:
			o.Dialect = "bool"
			toks := make([]string, 1+i/6%maxRankToks)
			for k := range toks {
				toks[k] = "'" + word(rankLo) + "'"
			}
			o.Query = strings.Join(toks, []string{" OR ", " AND "}[i/24%2])
			if i%20 == 2 || i%20 == 9 || i%20 == 16 {
				o.Query = "(" + o.Query + ") AND NOT '" + word(rankLo) + "'"
			}
		}
		i++
		return o
	}, func() { i-- })}
}

// hotQueries is the working-set size of the hot workload: a quarter of
// the server's 256-entry result cache.
const hotQueries = 64

// hotStream repeats hotQueries distinct queries, taken in turn from the
// two pools, with Zipf popularity.
func hotStream(seed uint64) *stream {
	a, b := classesStream(seed^0x407), rankedStream(seed^0x407)
	pool := make([]op, hotQueries)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = a.next()
		} else {
			pool[i] = b.next()
		}
	}
	r := newRNG(seed ^ 0x407407)
	z := newZipf(hotQueries)
	return &stream{next: func() op { return pool[z.rank(r)-1] }}
}

// mixReadStream is the reader of write_mix: unique BOOL and PPRED queries.
// Ranked queries are left out on purpose: at the seed commit the first
// ranked query after any write recomputes the collection statistics
// (about 200 ms at 100,000 documents, reported per layer as
// score.stats_rebuild_ms), so a ranked reader beside a writer holds no
// rate at all and the workload would measure nothing else.
func mixReadStream(seed uint64) *stream {
	a := classesStream(seed ^ 0x313)
	return &stream{next: func() op {
		for {
			if o := a.next(); o.Class == "bool" || o.Class == "ppred" {
				return o
			}
		}
	}}
}

// Write stream shape.
const (
	loadBatch   = 50 // documents per bulk-load batch
	pacedBatch  = 8  // documents per paced add batch
	deleteEvery = 10 // one paced write in ten is a delete-batch
)

// writeOps cuts docs into add batches of the given size; with deletes,
// every deleteEvery-th request instead deletes the ids of the oldest batch
// not yet deleted. Document counts are fixed by the caller, so the index
// grows identically on both sides of a comparison.
func writeOps(docs []doc, batch int, deletes bool) []op {
	var ops []op
	var added [][]string
	for len(docs) >= batch {
		if deletes && (len(ops)+1)%deleteEvery == 0 && len(added) > 0 {
			ops = append(ops, op{Kind: "delete", IDs: added[0], body: deleteBody(added[0])})
			added = added[1:]
			continue
		}
		ids := make([]string, batch)
		for k, d := range docs[:batch] {
			ids[k] = d.ID
		}
		added = append(added, ids)
		ops = append(ops, op{Kind: "add", Docs: docs[:batch], body: addBody(docs[:batch])})
		docs = docs[batch:]
	}
	return ops
}

// streamHash fingerprints the first n requests of a stream.
func streamHash(s *stream, n int) uint64 {
	h := fnv.New64a()
	for _, o := range s.take(n) {
		m, p, b := o.target()
		fmt.Fprintf(h, "%s %s %d\n", m, p, len(b))
		h.Write(b)
	}
	return h.Sum64()
}
