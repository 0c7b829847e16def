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
// per-node cartesian products).
type Evaluator struct {
	Index  *invlist.Index
	Reg    *pred.Registry
	Scorer Scorer

	// TuplesBuilt counts materialized tuples, for the complexity
	// instrumentation (Section 5.4's cost is driven by join output sizes).
	TuplesBuilt int

	// Scratch reused across operators and nodes (an Evaluator serves one
	// goroutine): the scores of one projection group.
	parts []float64
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
		return ev.leaf(entry, ev.Scorer.LeafHasPos(node)), nil

	case Token:
		entry := ev.Index.List(x.Tok).Find(node)
		if entry == nil {
			return nil, nil
		}
		return ev.leaf(entry, ev.Scorer.LeafToken(x.Tok, node)), nil

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
		// Project every tuple, then collapse runs of equal projections: a
		// stable sort keeps each group's scores in input order, and the
		// output sorted.
		w := len(x.Cols)
		cols := make([]core.Pos, len(in)*w)
		proj := make([]Tuple, len(in))
		for i, t := range in {
			pos := cols[i*w : (i+1)*w : (i+1)*w]
			for k, c := range x.Cols {
				pos[k] = t.Pos[c]
			}
			proj[i] = Tuple{Pos: pos, Score: t.Score}
		}
		less := func(i, j int) bool { return comparePos(proj[i].Pos, proj[j].Pos) < 0 }
		if !sort.SliceIsSorted(proj, less) {
			sort.SliceStable(proj, less)
		}
		var out []Tuple
		for i := 0; i < len(proj); {
			ev.parts = ev.parts[:0]
			j := i
			for ; j < len(proj) && comparePos(proj[i].Pos, proj[j].Pos) == 0; j++ {
				ev.parts = append(ev.parts, proj[j].Score)
			}
			out = append(out, Tuple{Pos: proj[i].Pos, Score: ev.Scorer.Project(ev.parts)})
			i = j
		}
		ev.TuplesBuilt += len(out)
		return out, nil

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
		// Both inputs are sorted and duplicate-free, so one merge pass
		// pairs equal tuples and keeps the output sorted.
		out := make([]Tuple, 0, len(l)+len(r))
		for i, j := 0, 0; i < len(l) || j < len(r); {
			c := 1
			switch {
			case i == len(l):
			case j == len(r):
				c = -1
			default:
				c = comparePos(l[i].Pos, r[j].Pos)
			}
			switch {
			case c < 0:
				out = append(out, Tuple{Pos: l[i].Pos, Score: ev.Scorer.Union(l[i].Score, 0, true, false)})
				i++
			case c > 0:
				out = append(out, Tuple{Pos: r[j].Pos, Score: ev.Scorer.Union(0, r[j].Score, false, true)})
				j++
			default:
				out = append(out, Tuple{Pos: l[i].Pos, Score: ev.Scorer.Union(l[i].Score, r[j].Score, true, true)})
				i, j = i+1, j+1
			}
		}
		ev.TuplesBuilt += len(out)
		return out, nil

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
		var out []Tuple
		for i, j := 0, 0; i < len(l) && j < len(r); {
			switch c := comparePos(l[i].Pos, r[j].Pos); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				out = append(out, Tuple{Pos: l[i].Pos, Score: ev.Scorer.Intersect(l[i].Score, r[j].Score)})
				i, j = i+1, j+1
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
		// With nothing to subtract every left tuple passes, rescored.
		out := make([]Tuple, 0, len(l))
		j := 0
		for _, t := range l {
			for j < len(r) && comparePos(r[j].Pos, t.Pos) < 0 {
				j++
			}
			if j < len(r) && comparePos(r[j].Pos, t.Pos) == 0 {
				continue
			}
			out = append(out, Tuple{Pos: t.Pos, Score: ev.Scorer.Diff(t.Score)})
		}
		ev.TuplesBuilt += len(out)
		return out, nil

	default:
		return nil, fmt.Errorf("fta: unknown expression %T", e)
	}
}

// leaf is the relation of one posting entry: a tuple per position, each
// starting from the leaf's one score s, its position column aliasing the
// entry (capacity-capped, so no operator can append into the index's
// memory).
func (ev *Evaluator) leaf(entry *invlist.Entry, s float64) []Tuple {
	out := make([]Tuple, len(entry.Pos))
	for i := range entry.Pos {
		out[i] = Tuple{Pos: entry.Pos[i : i+1 : i+1], Score: s}
	}
	ev.TuplesBuilt += len(out)
	return out
}

// comparePos orders position tuples of equal width by their ordinals,
// lexicographically. Every relation evalNode returns is sorted in this
// order and holds no two equal tuples (TestRelationsAreSortedAndDuplicateFree):
// leaves list a node's positions in order, Join pairs sorted inputs in
// order, Select, Intersect and Diff keep a sorted subsequence, Union merges
// its sorted inputs, and Project sorts what it builds.
func comparePos(a, b []core.Pos) int {
	for k := range a {
		if a[k].Ord != b[k].Ord {
			if a[k].Ord < b[k].Ord {
				return -1
			}
			return 1
		}
	}
	return 0
}
