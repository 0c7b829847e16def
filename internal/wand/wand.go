// Package wand is the ranked top-K fast path: a WAND-style doc-at-a-time
// evaluator (Broder et al., and the additional-index pruning line of
// Veretennikov) for positively grounded queries — Boolean token queries and
// the existential position-predicate queries (dist, SOME … HAS … pred) on
// top of them. Instead of scoring every context node the way the complete
// engine's full scan does, it
//
//   - drives candidate enumeration with seekable posting-list cursors
//     (intersection of the required tokens when the query implies them,
//     a WAND pivot over upper-bound-sorted cursors otherwise), and
//   - maintains the running K-th-best score as a threshold, skipping every
//     document whose per-token upper-bound sum cannot beat it.
//
// Documents that survive both filters are decided and scored by the same
// per-node algebra evaluation the exhaustive engine runs
// (fta.Evaluator.EvalNode), so the returned top K — results and scores — is
// identical to the exhaustive evaluator's, which the equivalence matrix
// test asserts. Position predicates are therefore never evaluated here:
// they are filters that the cursors ignore and EvalNode applies.
//
// When the scorer exposes per-block bounds (BlockScorer), the pivot step
// additionally refines its upper bound with the block maxima of the lists
// involved (block-max WAND, Ding & Suel): if even the refined bound cannot
// beat the threshold, the evaluator jumps every participating cursor past
// the current block configuration with Cursor.SeekBlock instead of
// stepping documents, so a long tail after one hot document prunes in
// whole blocks.
//
// NOT is eligible when the query remains positively grounded — every
// matching document must still contain at least one positively occurring
// token (NOT only ever restricts such a branch, as in 'a' AND NOT 'b').
// Purely negative tokens get complement cursors: zero-upper-bound cursors
// kept out of the pivot driver that are only seek-aligned to settle token
// presence for the Boolean structure check. Analyze declines queries
// outside the eligible fragment, with a reason.
//
// The same drivers, with pruning off, are the candidate generator of every
// other node loop (Collect): the complete engine's unranked evaluation, and
// ranked evaluation of declined or unbounded-K queries. They need only the
// first of Analyze's answers, that the query is grounded; an ungrounded
// query falls back to the full scan.
//
// # Why the per-leaf bound sum dominates the evaluated score
//
// Skipping is sound only if, for every node n the algebra accepts,
//
//	score(n) ≤ Σ_tok Count[tok] · UpperBound(tok)
//
// where UpperBound(tok) dominates the aggregate of one R_tok leaf on any
// node: the sum of its tuple scores under TF-IDF, their noisy-or under
// PRA. Every positive literal and HAS atom compiles to exactly one R_tok
// leaf (fta.Compile duplicates no subexpression), and a leaf under NOT
// sits on the right of a difference operator, which never passes a score
// on. What has to be shown is that Join, Select, Project, Union, Intersect
// and Diff cannot grow the leaves' aggregate. The property test in
// bound_test.go holds both arguments against random queries and corpora.
//
// TF-IDF, for every plan. Let mass(R) be the sum of R's tuple scores on n;
// all scores are ≥ 0, and IL_ANY and SearchContext tuples score 0. Join
// conserves mass exactly: Σ_{a,b} (a/|R| + b/|L|) = mass(L) + mass(R).
// Project sums collapsing tuples and Union adds matching ones (mass
// unchanged), Select and Diff drop tuples and pass the rest through, and
// Intersect takes a minimum. So the root's single tuple carries at most the
// summed mass of the scoring leaves.
//
// PRA, for the fragment Analyze admits. Let N(R) = 1 − Π_t (1 − s_t), the
// noisy-or of R's tuple scores s_t ∈ [0,1] — what projecting R to width 0
// yields, and exactly UpperBound's quantity on a leaf. Project leaves N
// unchanged; Select scales by f ≤ 1 and drops tuples, and Diff drops
// tuples of its left input: neither raises N. Intersect keeps a subset of
// either input's tuples, each multiplied by a partner ≤ 1, so its N is at
// most that of an input the compiler did not pad. Union gives
// 1 − (1−N(L))(1−N(R)) ≤ N(L) + N(R). For Join, whose tuples score l·r,
// write x = Σ l, y = Σ r:
//
//   - if x ≤ 1 then for each r: Π_l (1 − l·r) ≥ 1 − r·x ≥ 1 − r
//     (Weierstrass), so N(L ⋈ R) ≤ N(R); symmetrically if y ≤ 1;
//   - otherwise N(L) ≥ 1 − e^−x > 0.63 and likewise N(R), so
//     N(L) + N(R) > 1 ≥ N(L ⋈ R);
//   - and if R has at most one tuple (width 0), N(L ⋈ R) ≤ N(L) whatever
//     R's score is — which is how an ungrounded closed conjunct such as
//     NOT 'b', scoring 1, stays out of the sum.
//
// Hence N(L ⋈ R) ≤ min(1, N(L) + N(R)), and by induction the root's score
// is at most the summed leaf noisy-ors. The induction needs every operand
// of a Join to be either grounded (so its N is covered by its own leaves)
// or of width 0, and one grounded, unpadded operand of every Intersect. It
// breaks where the compiler pads a scored relation with IL_ANY: those
// tuples have probability 1, and one scored tuple joined with k positions
// becomes k copies whose noisy-or approaches 1. Analyze therefore declines
// the shapes that compile to such padding outside a NOT.
//
// Both arguments are in real arithmetic; boundSlack absorbs the
// floating-point reassociation between them and the evaluated score.
package wand

import (
	"container/heap"
	"fmt"
	"sort"

	"fulltext/internal/core"
	"fulltext/internal/fta"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/score"
)

// Scorer is a scoring model usable by the fast path: the Section 3 algebra
// transformations plus a sound per-query-leaf score upper bound.
type Scorer interface {
	fta.Scorer
	// UpperBound returns a value no node's aggregated score contribution
	// for one query leaf of tok can exceed (up to floating-point
	// reassociation, which boundSlack absorbs).
	UpperBound(tok string) float64
}

// BlockScorer is a Scorer that can additionally refine its upper bound per
// posting-list block; both built-in models implement it. The evaluator
// type-asserts for it, so plain Scorers keep working with per-list bounds
// only.
type BlockScorer interface {
	Scorer
	// BlockBounds returns the per-block refinement of UpperBound(tok); a
	// zero value (nil Metas) disables block refinement for the token.
	BlockBounds(tok string) score.BlockBounds
}

// boundSlack absorbs floating-point reassociation between a document's
// actual evaluated score and its upper-bound sum: a document is pruned only
// when bound·boundSlack still cannot beat the threshold. Reordering error
// is ~1e-15 relative; six orders of magnitude of headroom costs a
// negligible amount of pruning and keeps the skip decisions sound.
const boundSlack = 1 + 1e-9

// Analysis is the token-level structure of a query. It carries two
// answers, computed by one scan: whether posting lists can enumerate the
// query's candidates (Grounded), and whether the WAND score bound holds
// for it (Decline empty).
type Analysis struct {
	root lang.Query
	// Tokens lists the distinct positively occurring query tokens — search
	// literals and HAS atoms under an even number of NOTs — in
	// first-occurrence order. Literals appearing only under NOT are in
	// NegTokens instead.
	Tokens []string
	// Count is the positive query-leaf multiplicity per distinct token: a
	// token appearing in k positive leaves can contribute at most k times
	// its leaf upper bound to a document's score (package comment). Negated
	// leaves never add score — they compile to the right-hand side of
	// difference operators, which only drop or pass through tuples — so
	// they do not count.
	Count map[string]int
	// Required holds the tokens every matching document must contain
	// (intersected across OR branches, unioned across AND; NOT branches,
	// quantifiers over all positions and predicates require nothing).
	Required map[string]bool
	// NegTokens lists the distinct tokens whose literals occur only under
	// NOT, in first-occurrence order. They carry no score upper bound; the
	// evaluator aligns complement cursors over them solely to settle
	// presence for Matches.
	NegTokens []string
	// Grounded reports that every matching document contains one of
	// Tokens, so the posting lists of Tokens name a superset of the
	// matches: the candidates. An ungrounded query must visit every node.
	Grounded bool
	// Decline is why the WAND score bound does not hold for the query, ""
	// when it does. A declined query that is grounded still takes its
	// candidates from the posting lists; it just cannot prune by score.
	Decline string

	negSet map[string]bool
}

// Reasons Analyze gives for declining a query the score bound.
const (
	DeclineEvery       = "every"        // EVERY quantifier
	DeclineAny         = "any"          // the universal token ANY
	DeclineHasAny      = "has-any"      // a variable ranging over all positions
	DeclineUnboundPred = "unbound-pred" // predicate over a variable no sibling conjunct binds
	DeclineOpenOr      = "open-or"      // OR branches over different variables
	DeclinePaddedAnd   = "padded-and"   // conjuncts sharing only some of their variables
	DeclineFreeNot     = "free-not"     // a NOT no grounded conjunct restricts
)

// Analyze inspects a normalized query of any shape and returns its token
// analysis with both answers.
//
// Grounding: a literal or a positive HAS atom is grounded; an AND is
// grounded if either branch is; an OR only if both are; SOME is
// transparent. A NOT never is (it matches token-free documents), and
// neither are EVERY, ANY, HAS ANY or a predicate: they require and ground
// nothing. A grounded query's matches all contain a token of Tokens, which
// is what lets cursors over the positive lists enumerate its candidates.
//
// The WAND-eligible fragment is the positively grounded existential one:
// search tokens and HAS atoms under AND, OR, NOT and SOME, with position
// predicates as filters — a predicate requires nothing, grounds nothing and
// adds no score. An ungrounded query declines with DeclineFreeNot. Bound
// safety (package comment) adds that outside every NOT the compiled plan
// must not pair scored tuples with IL_ANY positions. fta.Compile
// introduces IL_ANY for HAS ANY, for a predicate that is not a conjunct of
// a relation binding all its variables, for OR branches over different
// variables, for conjuncts that share only some of their variables, and for
// a NOT over position variables unless a grounded conjunct binding those
// variables intersects it. EVERY and ANY decline wherever they stand;
// otherwise nothing inside a NOT is scored and any shape is allowed there.
func Analyze(q lang.Query) *Analysis {
	a := &Analysis{root: q, Count: make(map[string]int), negSet: make(map[string]bool)}
	p := a.scan(q, true, true)
	a.Required, a.Grounded = p.req, p.grounded
	if !p.grounded {
		a.decline(DeclineFreeNot)
	}
	return a
}

// Source names the nodes a grounded query is evaluated on: the
// intersection of the required tokens' posting lists when it has any, the
// union of every positive token's list otherwise.
func (a *Analysis) Source() string {
	if !a.Grounded {
		return "scan (ungrounded)"
	}
	var toks []string
	for _, t := range a.Tokens {
		if len(a.Required) == 0 || a.Required[t] {
			toks = append(toks, t)
		}
	}
	if len(a.Required) > 0 {
		return "∩" + fmt.Sprint(toks)
	}
	return "∪" + fmt.Sprint(toks)
}

// decline records the first reason the score bound fails.
func (a *Analysis) decline(why string) {
	if a.Decline == "" {
		a.Decline = why
	}
}

// part is what scan learns about one subquery.
type part struct {
	req      map[string]bool // tokens every match of the subquery contains
	grounded bool            // every match contains a positively occurring token
}

// scan walks the query at the given polarity (pos is false under an odd
// number of NOTs), accumulating positive counts and negative-only tokens,
// and returns the subquery's required set and groundedness. scored is true
// outside every NOT, where the bound-safety rules apply; they are stated
// over the subqueries' free position variables, which are the columns of
// the relations fta.Compile builds for them. A broken rule is recorded
// with decline and the walk goes on.
func (a *Analysis) scan(q lang.Query, pos, scored bool) part {
	switch x := q.(type) {
	case lang.Lit:
		if !pos {
			if !a.negSet[x.Tok] {
				a.negSet[x.Tok] = true
				if a.Count[x.Tok] == 0 {
					a.NegTokens = append(a.NegTokens, x.Tok)
				}
			}
			return part{req: map[string]bool{}}
		}
		a.countPositive(x.Tok)
		return part{req: map[string]bool{x.Tok: true}, grounded: true}
	case lang.Has:
		if !pos {
			// Matches never asks for the presence of a negated HAS token
			// (see admits), so it needs no cursor of either kind.
			return part{req: map[string]bool{}}
		}
		a.countPositive(x.Tok)
		return part{req: map[string]bool{x.Tok: true}, grounded: true}
	case lang.HasAny:
		if scored {
			a.decline(DeclineHasAny)
		}
	case lang.Pred:
		// A predicate that reaches scan is not the conjunct of a relation
		// binding its variables (And handles those): it compiles to a
		// selection over a product of IL_ANY.
		if scored {
			a.decline(DeclineUnboundPred)
		}
	case lang.And:
		// fta.Compile turns a predicate conjunct over columns the other
		// conjunct already carries into a selection on it: a filter.
		if p, ok := x.R.(lang.Pred); ok {
			return a.scanFiltered(x.L, p, pos, scored)
		}
		if p, ok := x.L.(lang.Pred); ok {
			return a.scanFiltered(x.R, p, pos, scored)
		}
		l := a.scan(x.L, pos, scored)
		r := a.scan(x.R, pos, scored)
		if scored {
			lf, rf := lang.FreeVars(x.L), lang.FreeVars(x.R)
			switch {
			case disjoint(lf, rf):
				// A join: each operand must be grounded or of width 0.
				if (!l.grounded && len(lf) > 0) || (!r.grounded && len(rf) > 0) {
					a.decline(DeclineFreeNot)
				}
			case subset(rf, lf) && l.grounded, subset(lf, rf) && r.grounded:
				// An intersection that pads only the side it is bounded
				// without.
			case subset(rf, lf) || subset(lf, rf):
				a.decline(DeclineFreeNot)
			default:
				a.decline(DeclinePaddedAnd)
			}
		}
		for t := range r.req {
			l.req[t] = true
		}
		return part{req: l.req, grounded: l.grounded || r.grounded}
	case lang.Or:
		l := a.scan(x.L, pos, scored)
		r := a.scan(x.R, pos, scored)
		if scored {
			if lf, rf := lang.FreeVars(x.L), lang.FreeVars(x.R); !subset(lf, rf) || !subset(rf, lf) {
				a.decline(DeclineOpenOr)
			}
		}
		both := make(map[string]bool)
		for t := range l.req {
			if r.req[t] {
				both[t] = true
			}
		}
		return part{req: both, grounded: l.grounded && r.grounded}
	case lang.Not:
		a.scan(x.Q, !pos, false)
	case lang.Some:
		return a.scan(x.Q, pos, scored)
	case lang.Every:
		// Matches settles nothing inside EVERY (see admits), so its tokens
		// need no cursors.
		a.decline(DeclineEvery)
	default: // lang.Any
		a.decline(DeclineAny)
	}
	return part{req: map[string]bool{}}
}

// scanFiltered scans a conjunction of q with the predicate p: a filter on
// q's relation when q binds every variable of p.
func (a *Analysis) scanFiltered(q lang.Query, p lang.Pred, pos, scored bool) part {
	if scored && !subset(p.Vars, lang.FreeVars(q)) {
		a.decline(DeclineUnboundPred)
	}
	return a.scan(q, pos, scored)
}

// countPositive records one positive leaf of tok.
func (a *Analysis) countPositive(tok string) {
	if a.Count[tok] == 0 {
		a.Tokens = append(a.Tokens, tok)
		// Promote a token first seen under NOT: it now has a scoring
		// cursor, so it no longer needs a complement cursor.
		if a.negSet[tok] {
			for i, t := range a.NegTokens {
				if t == tok {
					a.NegTokens = append(a.NegTokens[:i], a.NegTokens[i+1:]...)
					break
				}
			}
		}
	}
	a.Count[tok]++
}

// subset and disjoint compare sets of variable names; the second argument
// is sorted, as lang.FreeVars returns it.
func subset(sub, super []string) bool {
	for _, v := range sub {
		if i := sort.SearchStrings(super, v); i == len(super) || super[i] != v {
			return false
		}
	}
	return true
}

func disjoint(a, b []string) bool {
	for _, v := range a {
		if subset([]string{v}, b) {
			return false
		}
	}
	return true
}

// Matches is a necessary condition on a candidate's token set: a document
// the algebra accepts always satisfies it, so candidates failing it are
// skipped without touching the algebra. For a query of search tokens alone
// it is also sufficient. The candidate must be a non-empty document, which
// every document a positive cursor surfaces is.
func (a *Analysis) Matches(present func(tok string) bool) bool {
	return admits(a.root, true, present)
}

// admits approximates q over token presence from the side that can never
// prune a match. With upper set (an even number of NOTs above q) it returns
// true whenever q holds for some assignment of its free variables; without,
// it returns true only if q holds for every assignment. NOT swaps the two,
// so what presence cannot settle — a position predicate, a HAS atom asked
// whether it holds everywhere — resolves to true under an even number of
// NOTs and to false under an odd number.
func admits(q lang.Query, upper bool, present func(tok string) bool) bool {
	switch x := q.(type) {
	case lang.Lit:
		return present(x.Tok)
	case lang.Has:
		return upper && present(x.Tok)
	case lang.And:
		return admits(x.L, upper, present) && admits(x.R, upper, present)
	case lang.Or:
		return admits(x.L, upper, present) || admits(x.R, upper, present)
	case lang.Not:
		return !admits(x.Q, !upper, present)
	case lang.Some:
		// ∃v q holds wherever q holds for every v only because the
		// candidate has at least one position.
		return admits(x.Q, upper, present)
	default: // lang.Pred, lang.HasAny
		return upper
	}
}

// Stats counts fast-path work for instrumentation and benchmarks.
type Stats struct {
	// Candidates is the number of documents the cursor drivers surfaced
	// (every one contains tokens satisfying the query's Boolean structure,
	// or at least one query token in the disjunctive driver).
	Candidates uint64
	// Scored counts full per-node algebra evaluations — the work WAND
	// exists to avoid; compare against Candidates and the index size.
	Scored uint64
	// Matched counts scored documents that qualified.
	Matched uint64
	// BoundSkipped counts candidates pruned by the upper-bound threshold
	// check without being scored.
	BoundSkipped uint64
	// Tombstoned counts candidates dropped by the liveness filter (deleted
	// documents surfaced by a segment's posting lists).
	Tombstoned uint64
	// Seeks counts cursor Seek operations issued by the drivers.
	Seeks uint64
	// BlocksSkipped counts posting-list block boundaries crossed through
	// the block directory instead of entry-level galloping — the work
	// block-max evaluation avoids.
	BlocksSkipped uint64
}

func (s *Stats) add(o Stats) {
	s.Candidates += o.Candidates
	s.Scored += o.Scored
	s.Matched += o.Matched
	s.BoundSkipped += o.BoundSkipped
	s.Tombstoned += o.Tombstoned
	s.Seeks += o.Seeks
	s.BlocksSkipped += o.BlocksSkipped
}

// rankedLess is score.Rank's order: descending score, ties by ascending
// node id.
func rankedLess(a, b score.Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// rankedHeap is a bounded min-heap keeping the K best candidates: the root
// is the current worst, i.e. the running threshold.
type rankedHeap []score.Ranked

func (h rankedHeap) Len() int            { return len(h) }
func (h rankedHeap) Less(i, j int) bool  { return rankedLess(h[j], h[i]) }
func (h rankedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rankedHeap) Push(x interface{}) { *h = append(*h, x.(score.Ranked)) }
func (h *rankedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// cursor tracks one query token's posting list position.
type cursor struct {
	tok      string
	ub       float64 // multiplicity-weighted upper bound
	c        *invlist.Cursor
	node     core.NodeID
	done     bool
	required bool

	// Block-max refinement (nil/zero when the scorer has no block bounds
	// for the token): the list's block directory, its granularity, and the
	// multiplicity-weighted per-block upper bounds parallel to blocks.
	blocks []invlist.BlockMeta
	bsize  int
	bubs   []float64
}

// curBlock returns the block index covering the cursor's current entry.
func (c *cursor) curBlock() int { return c.c.EntryIndex() / c.bsize }

// blockFor locates the first block at or after the cursor's position whose
// ordinal range reaches node; ok is false when the list ends before node.
// The cursor must be positioned on an entry and have block metadata.
func (c *cursor) blockFor(node core.NodeID) (int, bool) {
	cb := c.curBlock()
	if cb >= len(c.blocks) {
		return 0, false
	}
	if c.blocks[cb].Last >= node {
		return cb, true
	}
	k := sort.Search(len(c.blocks)-cb-1, func(k int) bool { return c.blocks[cb+1+k].Last >= node })
	b := cb + 1 + k
	if b >= len(c.blocks) {
		return 0, false
	}
	return b, true
}

// curBound returns the tightest known upper bound for the cursor's current
// document: the block bound when available, the per-list bound otherwise.
func (c *cursor) curBound() float64 {
	if c.bubs == nil {
		return c.ub
	}
	if b := c.curBlock(); b >= 0 && b < len(c.bubs) {
		return c.bubs[b]
	}
	return c.ub
}

// Live filters candidate documents by local node id; nil admits every node.
// It is how the incremental segment layer threads tombstones into the fast
// path: dead documents are skipped before the bound check, never scored,
// and never enter the heap, so the published K-th-best threshold counts
// live documents only and stays sound for cross-segment and cross-shard
// sharing.
type Live func(core.NodeID) bool

// evaluator bundles the per-query evaluation state.
type evaluator struct {
	ev     *fta.Evaluator
	plan   fta.Expr
	a      *Analysis
	k      int // 0 collects every match: no pruning, h is a plain list
	shared *Shared
	st     *Stats
	live   Live

	curs  []*cursor
	negs  []*cursor // complement cursors for NOT-only tokens (zero bound)
	byTok map[string]*cursor
	h     rankedHeap
}

// Eval runs the fast path: the top k matches of an Analyze-eligible query,
// identical — results and scores — to evaluating the plan exhaustively,
// ranking with score.Rank and truncating to k. plan must have passed
// fta.ValidateQuery, and ev must carry the same Scorer as sc. shared, when non-nil, is the cross-shard threshold: Eval
// prunes against it and publishes its own K-th-best into it, and may then
// return fewer than its local top k — only documents that provably cannot
// enter the global top k are dropped, so a global top-K merge over all
// shards is unaffected. st, when non-nil, accumulates work counters. live,
// when non-nil, excludes tombstoned documents from candidacy.
func Eval(ev *fta.Evaluator, plan fta.Expr, a *Analysis, sc Scorer, k int, shared *Shared, st *Stats, live Live) ([]score.Ranked, error) {
	if k <= 0 {
		return nil, fmt.Errorf("wand: top-K must be positive, got %d", k)
	}
	out, err := run(&evaluator{ev: ev, plan: plan, a: a, k: k, shared: shared, st: st, live: live}, sc)
	sort.Slice(out, func(i, j int) bool { return rankedLess(out[i], out[j]) })
	return out, err
}

// Collect evaluates plan on every candidate of a Grounded analysis, with
// pruning off: the same cursor drivers enumerate the nodes a.Source names,
// Matches filters them, live drops tombstoned ones, and EvalNode decides
// and scores the rest. It returns every match, in ascending node order —
// exactly the matches of the full 1..N scan, because a grounded query
// matches no node outside its candidates. Scores are whatever ev's Scorer
// gives; plan must have passed fta.ValidateQuery.
func Collect(ev *fta.Evaluator, plan fta.Expr, a *Analysis, st *Stats, live Live) ([]score.Ranked, error) {
	return run(&evaluator{ev: ev, plan: plan, a: a, st: st, live: live}, nil)
}

// run opens a cursor per query token and drives the candidates through e;
// sc, nil when e collects, supplies the upper bounds.
func run(e *evaluator, sc Scorer) ([]score.Ranked, error) {
	a, ev := e.a, e.ev
	if e.st == nil {
		e.st = &Stats{}
	}
	e.byTok = make(map[string]*cursor, len(a.Tokens)+len(a.NegTokens))
	bs, _ := sc.(BlockScorer)
	for _, tok := range a.Tokens {
		cc := ev.Index.List(tok).Cursor()
		node, ok := cc.NextEntry()
		if !ok {
			if a.Required[tok] {
				return nil, nil // a required token absent from this index: no matches
			}
			continue
		}
		cur := &cursor{tok: tok, c: cc, node: node, required: a.Required[tok]}
		if sc != nil {
			cur.ub = float64(a.Count[tok]) * sc.UpperBound(tok)
		}
		if bs != nil {
			if bb := bs.BlockBounds(tok); len(bb.Metas) > 0 && bb.Size > 0 {
				cur.blocks, cur.bsize = bb.Metas, bb.Size
				cur.bubs = make([]float64, len(bb.UBs))
				cnt := float64(a.Count[tok])
				for i, u := range bb.UBs {
					cur.bubs[i] = cnt * u
				}
			}
		}
		e.curs = append(e.curs, cur)
		e.byTok[tok] = cur
	}
	if len(e.curs) == 0 {
		return nil, nil // no positive token present: grounded queries cannot match
	}
	for _, tok := range a.NegTokens {
		cc := ev.Index.List(tok).Cursor()
		node, ok := cc.NextEntry()
		if !ok {
			continue // absent token: present() is false, the NOT holds everywhere
		}
		cur := &cursor{tok: tok, c: cc, node: node}
		if bs != nil {
			if bb := bs.BlockBounds(tok); len(bb.Metas) > 0 && bb.Size > 0 {
				cur.blocks, cur.bsize = bb.Metas, bb.Size
			}
		}
		e.negs = append(e.negs, cur)
		e.byTok[tok] = cur
	}
	var err error
	if len(a.Required) > 0 {
		err = e.runConjunctive()
	} else {
		err = e.runPivot()
	}
	if err != nil {
		return nil, err
	}
	for _, c := range e.curs {
		e.st.BlocksSkipped += uint64(c.c.BlockSkips)
	}
	for _, c := range e.negs {
		e.st.BlocksSkipped += uint64(c.c.BlockSkips)
	}
	return []score.Ranked(e.h), nil
}

// prunable reports whether a document whose score is bounded by ub cannot
// enter the result: with the local heap full, candidates are processed in
// ascending node order so ties at the K-th score always lose, making
// ub <= threshold safe; against the shared cross-shard threshold the
// comparison must stay strict because global ties break on document
// ordinal, which interleaves across shards.
func (e *evaluator) prunable(ub float64) bool {
	if e.k == 0 {
		return false
	}
	ubEff := ub * boundSlack
	if len(e.h) >= e.k && ubEff <= e.h[0].Score {
		return true
	}
	if e.shared != nil && ubEff < e.shared.Load() {
		return true
	}
	return false
}

// offer inserts a qualified document into the bounded heap and publishes
// the new K-th-best threshold.
func (e *evaluator) offer(node core.NodeID, s float64) {
	d := score.Ranked{Node: node, Score: s}
	if e.k == 0 {
		e.h = append(e.h, d)
		return
	}
	if len(e.h) < e.k {
		heap.Push(&e.h, d)
	} else if rankedLess(d, e.h[0]) {
		e.h[0] = d
		heap.Fix(&e.h, 0)
	} else {
		return
	}
	if e.shared != nil && len(e.h) >= e.k {
		e.shared.Raise(e.h[0].Score)
	}
}

// seek advances a cursor to the first document >= node, through the block
// directory when the cursor has one.
func (e *evaluator) seek(c *cursor, node core.NodeID) (core.NodeID, bool) {
	e.st.Seeks++
	if len(c.blocks) > 0 {
		return c.c.SeekBlock(c.blocks, c.bsize, node)
	}
	return c.c.Seek(node)
}

// alignNegs seeks every complement cursor to the candidate so Matches sees
// accurate presence for negated tokens.
func (e *evaluator) alignNegs(target core.NodeID) {
	for _, c := range e.negs {
		if c.done || c.node >= target {
			continue
		}
		if n, ok := e.seek(c, target); ok {
			c.node = n
		} else {
			c.done = true
		}
	}
}

// evalDoc runs the liveness filter, the bound check and, when both survive,
// the per-node algebra evaluation for one candidate whose token presence
// already satisfies the query.
func (e *evaluator) evalDoc(node core.NodeID, ub float64) error {
	e.st.Candidates++
	if e.live != nil && !e.live(node) {
		e.st.Tombstoned++
		return nil
	}
	if e.prunable(ub) {
		e.st.BoundSkipped++
		return nil
	}
	matched, s, err := e.ev.EvalNode(e.plan, node)
	if err != nil {
		return err
	}
	e.st.Scored++
	if matched {
		e.st.Matched++
		e.offer(node, s)
	}
	return nil
}

// runConjunctive drives candidates by intersecting the required tokens'
// posting lists with galloping seeks; optional tokens tag along to settle
// presence and tighten each candidate's upper-bound sum.
func (e *evaluator) runConjunctive() error {
	var req, opt []*cursor
	var totalUB float64
	for _, c := range e.curs {
		totalUB += c.ub
		if c.required {
			req = append(req, c)
		} else {
			opt = append(opt, c)
		}
	}
	target := core.NodeID(1)
	for _, c := range req {
		if c.node > target {
			target = c.node
		}
	}
	for {
		// Even a document containing every query token cannot qualify any
		// more: the whole remaining corpus is prunable.
		if e.prunable(totalUB) {
			return nil
		}
		aligned := true
		for _, c := range req {
			if c.node >= target {
				continue
			}
			n, ok := e.seek(c, target)
			if !ok {
				return nil
			}
			c.node = n
			if n > target {
				target = n
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		// The candidate's bound uses each aligned cursor's block-refined
		// bound when available: the required cursors all sit on target, so
		// their current block bounds apply.
		ub := 0.0
		for _, c := range req {
			ub += c.curBound()
		}
		for _, c := range opt {
			if !c.done && c.node < target {
				n, ok := e.seek(c, target)
				if ok {
					c.node = n
				} else {
					c.done = true
				}
			}
			if !c.done && c.node == target {
				ub += c.curBound()
			}
		}
		e.alignNegs(target)
		present := func(tok string) bool {
			c := e.byTok[tok]
			return c != nil && !c.done && c.node == target
		}
		if e.a.Matches(present) {
			if err := e.evalDoc(target, ub); err != nil {
				return err
			}
		}
		target++
		if target == 0 { // NodeID overflow guard
			return nil
		}
	}
}

// runPivot is the WAND loop for queries without required tokens: cursors
// sort by current document, per-list upper bounds accumulate until they
// could beat the threshold (the pivot), and everything before the pivot is
// skipped with galloping seeks. When cursors carry block bounds the pivot
// step is block-max refined: the bound is recomputed from the block each
// cursor would contribute at the pivot document, and if even that refined
// bound is prunable, the whole block configuration — every document up to
// the nearest block boundary — is skipped in one SeekBlock jump per cursor
// instead of being stepped through.
func (e *evaluator) runPivot() error {
	active := append([]*cursor(nil), e.curs...)
	for len(active) > 0 {
		sort.Slice(active, func(i, j int) bool { return active[i].node < active[j].node })
		acc := 0.0
		pivot := -1
		for i, c := range active {
			acc += c.ub
			if !e.prunable(acc) {
				pivot = i
				break
			}
		}
		if pivot == -1 {
			return nil // no remaining document can beat the threshold
		}
		pnode := active[pivot].node
		// Extend the pivot group over every cursor already at pnode so the
		// refined bound covers the whole candidate and the group's skip
		// window is bounded by a strictly later document.
		for pivot+1 < len(active) && active[pivot+1].node == pnode {
			pivot++
		}

		// Block-max refinement: bound every document in [pnode, change) by
		// the block each group cursor covers it with. change is the nearest
		// document at which any cursor's covering block (or gap) ends, so
		// within the window the per-cursor contributions cannot grow.
		rub := 0.0
		var change core.NodeID
		haveChange := false
		shrink := func(n core.NodeID) {
			if !haveChange || n < change {
				change, haveChange = n, true
			}
		}
		for _, c := range active[:pivot+1] {
			if c.bubs == nil {
				rub += c.ub // per-list bound holds for every document
				continue
			}
			b, ok := c.blockFor(pnode)
			if !ok {
				continue // list ends before pnode: contributes nothing from here on
			}
			m := &c.blocks[b]
			if m.First > pnode {
				// pnode falls in the gap before block b: zero contribution
				// until the block starts.
				shrink(m.First)
				continue
			}
			rub += c.bubs[b]
			shrink(m.Last + 1)
		}

		if haveChange && e.prunable(rub) {
			// Even the refined bound loses inside the window: jump every
			// group cursor to its end. Cap at the next cursor's document —
			// beyond it a new list joins the configuration and the bound no
			// longer applies.
			d := change
			if pivot+1 < len(active) && active[pivot+1].node < d {
				d = active[pivot+1].node
			}
			for _, c := range active[:pivot+1] {
				if c.node >= d {
					continue
				}
				if n, ok := e.seek(c, d); ok {
					c.node = n
				} else {
					c.done = true
				}
			}
		} else if active[0].node == pnode {
			// Aligned: every group cursor sits on pnode, so rub is exactly
			// the candidate's block-refined bound (or the per-list sum when
			// blocks are unavailable).
			e.alignNegs(pnode)
			present := func(tok string) bool {
				c := e.byTok[tok]
				return c != nil && !c.done && c.node == pnode
			}
			if e.a.Matches(present) {
				if err := e.evalDoc(pnode, rub); err != nil {
					return err
				}
			}
			for _, c := range active {
				if c.node != pnode {
					continue
				}
				if n, ok := c.c.NextEntry(); ok {
					c.node = n
				} else {
					c.done = true
				}
			}
		} else {
			for _, c := range active {
				if c.node >= pnode {
					break
				}
				n, ok := e.seek(c, pnode)
				if ok {
					c.node = n
				} else {
					c.done = true
				}
			}
		}
		live := active[:0]
		for _, c := range active {
			if !c.done {
				live = append(live, c)
			}
		}
		active = live
	}
	return nil
}
