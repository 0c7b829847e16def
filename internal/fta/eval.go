package fta

import (
	"fmt"
	"sort"

	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/pred"
)

// Tuple is one row of a materialized full-text relation for a fixed context
// node: the position attributes plus the per-tuple score of Section 3.
type Tuple struct {
	Pos   []core.Pos
	Score float64
}

// Result is the outcome of evaluating an algebra query: the qualifying
// nodes in id order and, when a scoring model is used, a score per node.
type Result struct {
	Nodes  []core.NodeID
	Scores map[core.NodeID]float64
}

// Evaluator materializes full-text algebra expressions node-at-a-time
// against an inverted-list index. Node-at-a-time evaluation bounds memory
// by the per-node relation sizes (the paper's COMP engine enumerates the
// per-node cartesian products); FullMaterialize switches to whole-relation
// evaluation for the ablation benchmark.
type Evaluator struct {
	Index  *invlist.Index
	Reg    *pred.Registry
	Scorer Scorer

	// FullMaterialize evaluates whole relations instead of node-at-a-time.
	FullMaterialize bool

	// TuplesBuilt counts materialized tuples, for the complexity
	// instrumentation (Section 5.4's cost is driven by join output sizes).
	TuplesBuilt int

	// Scratch reused across operators and nodes (an Evaluator serves one
	// goroutine): the scores of one projection group, and one tuple key.
	parts []float64
	key   []byte
}

// Eval runs a width-0 algebra query and returns the qualifying nodes.
func (ev *Evaluator) Eval(e Expr) (*Result, error) {
	if ev.Scorer == nil {
		ev.Scorer = NoScore{}
	}
	if err := ValidateQuery(e, ev.Reg); err != nil {
		return nil, err
	}
	res := &Result{Scores: make(map[core.NodeID]float64)}
	if ev.FullMaterialize {
		rel, err := ev.evalFull(e)
		if err != nil {
			return nil, err
		}
		nodes := make([]core.NodeID, 0, len(rel))
		for n := range rel {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			if len(rel[n]) > 0 {
				res.Nodes = append(res.Nodes, n)
				res.Scores[n] = rel[n][0].Score
			}
		}
		return res, nil
	}
	for n := 1; n <= ev.Index.NumNodes(); n++ {
		node := core.NodeID(n)
		tuples, err := ev.evalNode(e, node)
		if err != nil {
			return nil, err
		}
		if len(tuples) > 0 {
			res.Nodes = append(res.Nodes, node)
			// A width-0 relation has at most one tuple per node after
			// set-dedup; its score is the node's score.
			res.Scores[node] = tuples[0].Score
		}
	}
	return res, nil
}

// EvalNode evaluates a width-0 algebra query for a single context node,
// reporting whether the node qualifies and, when a scorer is configured,
// its score. It is the doc-at-a-time entry point of the top-K fast path:
// callers validate the query once with ValidateQuery, enumerate candidate
// nodes themselves (seekable cursors, upper-bound pruning) and invoke
// EvalNode only for survivors — the per-node semantics and scores are
// byte-identical to Eval's full scan by construction, because both run the
// same evaluation.
func (ev *Evaluator) EvalNode(e Expr, node core.NodeID) (matched bool, score float64, err error) {
	if ev.Scorer == nil {
		ev.Scorer = NoScore{}
	}
	tuples, err := ev.evalNode(e, node)
	if err != nil {
		return false, 0, err
	}
	if len(tuples) == 0 {
		return false, 0, nil
	}
	return true, tuples[0].Score, nil
}

// EvalRelation materializes an arbitrary-width expression for every node;
// used by tests and the Lemma 1/2 round trips.
func (ev *Evaluator) EvalRelation(e Expr) (map[core.NodeID][]Tuple, error) {
	if ev.Scorer == nil {
		ev.Scorer = NoScore{}
	}
	if _, err := Width(e, ev.Reg); err != nil {
		return nil, err
	}
	if ev.FullMaterialize {
		return ev.evalFull(e)
	}
	out := make(map[core.NodeID][]Tuple)
	for n := 1; n <= ev.Index.NumNodes(); n++ {
		node := core.NodeID(n)
		tuples, err := ev.evalNode(e, node)
		if err != nil {
			return nil, err
		}
		if len(tuples) > 0 {
			out[node] = tuples
		}
	}
	return out, nil
}

// evalFull evaluates e for all nodes at once (simple recursion over the
// node-at-a-time evaluator, kept separate so the ablation measures the
// memory/locality difference of one big pass).
func (ev *Evaluator) evalFull(e Expr) (map[core.NodeID][]Tuple, error) {
	out := make(map[core.NodeID][]Tuple)
	for n := 1; n <= ev.Index.NumNodes(); n++ {
		node := core.NodeID(n)
		tuples, err := ev.evalNode(e, node)
		if err != nil {
			return nil, err
		}
		if len(tuples) > 0 {
			out[node] = tuples
		}
	}
	return out, nil
}

// evalNode materializes the relation of e restricted to one context node.
// Every operator is set-semantics: duplicates collapse (combining scores).
func (ev *Evaluator) evalNode(e Expr, node core.NodeID) ([]Tuple, error) {
	switch x := e.(type) {
	case SearchContext:
		ev.TuplesBuilt++
		return []Tuple{{Score: ev.Scorer.LeafContext(node)}}, nil

	case HasPos:
		entry := ev.Index.Any().Find(node)
		if entry == nil {
			return nil, nil
		}
		out := make([]Tuple, 0, len(entry.Pos))
		for _, p := range entry.Pos {
			out = append(out, Tuple{Pos: []core.Pos{p}, Score: ev.Scorer.LeafHasPos(node)})
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	case Token:
		entry := ev.Index.List(x.Tok).Find(node)
		if entry == nil {
			return nil, nil
		}
		// Every tuple of the leaf starts from the same score, and its
		// position column aliases the posting entry (capacity-capped, so no
		// operator can append into the index's memory).
		s := ev.Scorer.LeafToken(x.Tok, node)
		out := make([]Tuple, len(entry.Pos))
		for i := range entry.Pos {
			out[i] = Tuple{Pos: entry.Pos[i : i+1 : i+1], Score: s}
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	case Project:
		in, err := ev.evalNode(x.In, node)
		if err != nil {
			return nil, err
		}
		if len(in) == 0 {
			return nil, nil
		}
		if len(x.Cols) == 0 {
			// Width 0: every tuple collapses onto the node's one tuple.
			ev.parts = ev.parts[:0]
			for _, t := range in {
				ev.parts = append(ev.parts, t.Score)
			}
			ev.TuplesBuilt++
			return []Tuple{{Score: ev.Scorer.Project(ev.parts)}}, nil
		}
		type group struct {
			pos   []core.Pos
			parts []float64
		}
		idx := make(map[string]int, len(in))
		groups := make([]group, 0, len(in))
		cols := make([]core.Pos, len(in)*len(x.Cols))
		for _, t := range in {
			pos := cols[:len(x.Cols):len(x.Cols)]
			for i, c := range x.Cols {
				pos[i] = t.Pos[c]
			}
			ev.key = appendKey(ev.key[:0], pos)
			g, seen := idx[string(ev.key)]
			if !seen {
				g = len(groups)
				idx[string(ev.key)] = g
				groups = append(groups, group{pos: pos})
				cols = cols[len(x.Cols):]
			}
			groups[g].parts = append(groups[g].parts, t.Score)
		}
		out := make([]Tuple, len(groups))
		for i, g := range groups {
			out[i] = Tuple{Pos: g.pos, Score: ev.Scorer.Project(g.parts)}
		}
		ev.TuplesBuilt += len(out)
		return sortTuples(out), nil

	case Join:
		l, err := ev.evalNode(x.L, node)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, nil
		}
		r, err := ev.evalNode(x.R, node)
		if err != nil {
			return nil, err
		}
		if len(r) == 0 {
			return nil, nil
		}
		out := make([]Tuple, 0, len(l)*len(r))
		w := len(l[0].Pos) + len(r[0].Pos)
		cols := make([]core.Pos, 0, len(l)*len(r)*w) // one backing array for every output tuple
		for _, a := range l {
			for _, b := range r {
				cols = append(append(cols, a.Pos...), b.Pos...)
				out = append(out, Tuple{Pos: cols[len(cols)-w : len(cols) : len(cols)], Score: ev.Scorer.Join(a.Score, b.Score, len(l), len(r))})
			}
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	case Select:
		in, err := ev.evalNode(x.In, node)
		if err != nil {
			return nil, err
		}
		d, ok := ev.Reg.Lookup(x.Pred)
		if !ok {
			return nil, fmt.Errorf("fta: unknown predicate %q", x.Pred)
		}
		var out []Tuple
		args := make([]core.Pos, len(x.Cols))
		for _, t := range in {
			for i, c := range x.Cols {
				args[i] = t.Pos[c]
			}
			if d.Eval(args, x.Consts) {
				out = append(out, Tuple{Pos: t.Pos, Score: ev.Scorer.Select(t.Score, x.Pred, args, x.Consts)})
			}
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	case Union:
		l, err := ev.evalNode(x.L, node)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalNode(x.R, node)
		if err != nil {
			return nil, err
		}
		if len(l)+len(r) == 0 {
			return nil, nil
		}
		// A later duplicate of a key overwrites the side's score, so of a
		// width-0 side only the last tuple counts.
		if width0(l, r) {
			var sL, sR float64
			hL, hR := len(l) > 0, len(r) > 0
			if hL {
				sL = l[len(l)-1].Score
			}
			if hR {
				sR = r[len(r)-1].Score
			}
			ev.TuplesBuilt++
			return []Tuple{{Score: ev.Scorer.Union(sL, sR, hL, hR)}}, nil
		}
		type entry struct {
			pos    []core.Pos
			sL, sR float64
			hL, hR bool
		}
		idx := make(map[string]int, len(l)+len(r))
		es := make([]entry, 0, len(l)+len(r))
		find := func(t Tuple) *entry {
			ev.key = appendKey(ev.key[:0], t.Pos)
			i, seen := idx[string(ev.key)]
			if !seen {
				i = len(es)
				idx[string(ev.key)] = i
				es = append(es, entry{pos: t.Pos})
			}
			return &es[i]
		}
		for _, t := range l {
			e := find(t)
			e.sL, e.hL = t.Score, true
		}
		for _, t := range r {
			e := find(t)
			e.sR, e.hR = t.Score, true
		}
		out := make([]Tuple, len(es))
		for i, e := range es {
			out[i] = Tuple{Pos: e.pos, Score: ev.Scorer.Union(e.sL, e.sR, e.hL, e.hR)}
		}
		ev.TuplesBuilt += len(out)
		return sortTuples(out), nil

	case Intersect:
		l, err := ev.evalNode(x.L, node)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, nil
		}
		r, err := ev.evalNode(x.R, node)
		if err != nil {
			return nil, err
		}
		if len(r) == 0 {
			return nil, nil
		}
		if width0(l, r) {
			ev.TuplesBuilt++
			return []Tuple{{Score: ev.Scorer.Intersect(l[0].Score, r[len(r)-1].Score)}}, nil
		}
		rs := make(map[string]float64, len(r))
		for _, t := range r {
			ev.key = appendKey(ev.key[:0], t.Pos)
			rs[string(ev.key)] = t.Score
		}
		var out []Tuple
		seen := make(map[string]bool, len(l))
		for _, t := range l {
			ev.key = appendKey(ev.key[:0], t.Pos)
			if seen[string(ev.key)] {
				continue
			}
			seen[string(ev.key)] = true
			if s, ok := rs[string(ev.key)]; ok {
				out = append(out, Tuple{Pos: t.Pos, Score: ev.Scorer.Intersect(t.Score, s)})
			}
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	case Diff:
		l, err := ev.evalNode(x.L, node)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, nil
		}
		r, err := ev.evalNode(x.R, node)
		if err != nil {
			return nil, err
		}
		if width0(l, r) {
			if len(r) > 0 {
				return nil, nil
			}
			ev.TuplesBuilt++
			return []Tuple{{Score: ev.Scorer.Diff(l[0].Score)}}, nil
		}
		rk := make(map[string]bool, len(r))
		for _, t := range r {
			ev.key = appendKey(ev.key[:0], t.Pos)
			rk[string(ev.key)] = true
		}
		var out []Tuple
		seen := make(map[string]bool, len(l))
		for _, t := range l {
			ev.key = appendKey(ev.key[:0], t.Pos)
			if seen[string(ev.key)] || rk[string(ev.key)] {
				continue
			}
			seen[string(ev.key)] = true
			out = append(out, Tuple{Pos: t.Pos, Score: ev.Scorer.Diff(t.Score)})
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	default:
		return nil, fmt.Errorf("fta: unknown expression %T", e)
	}
}

// appendKey appends a tuple's set-semantics identity to b: four bytes per
// position ordinal, so two keys are equal exactly when the ordinals are.
func appendKey(b []byte, pos []core.Pos) []byte {
	for _, p := range pos {
		o := uint32(p.Ord)
		b = append(b, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
	}
	return b
}

// width0 reports whether two relations of equal width, not both empty, have
// no position columns: all their tuples then share the one empty key.
func width0(l, r []Tuple) bool {
	if len(l) > 0 {
		return len(l[0].Pos) == 0
	}
	return len(r[0].Pos) == 0
}

func sortTuples(ts []Tuple) []Tuple {
	if len(ts) < 2 {
		return ts
	}
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i].Pos, ts[j].Pos
		for k := range a {
			if a[k].Ord != b[k].Ord {
				return a[k].Ord < b[k].Ord
			}
		}
		return false
	})
	return ts
}
