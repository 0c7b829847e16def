// Package compeval is the COMP evaluation engine of Section 5.4: an
// arbitrary COMP query is translated to its calculus semantics, compiled to
// a full-text algebra expression (the Lemma 2 direction of Theorem 1) and
// evaluated with the materializing relational evaluator of package fta.
// Complexity is polynomial in the data (per-node cartesian products) and
// exponential in the query — the price of completeness, and the baseline
// that PPRED and NPRED beat in the Section 6 experiments.
package compeval

import (
	"fulltext/internal/core"
	"fulltext/internal/fta"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/pred"
)

// Options tunes the engine.
type Options struct {
	// Scorer ranks results (nil: Boolean evaluation).
	Scorer fta.Scorer
}

// Compile translates a COMP query into its algebra plan.
func Compile(q lang.Query, reg *pred.Registry) (fta.Expr, error) {
	return fta.Compile(lang.ToFTC(q), reg)
}

// Eval evaluates a COMP query and returns the qualifying nodes in order.
func Eval(q lang.Query, ix *invlist.Index, reg *pred.Registry, opts Options) ([]core.NodeID, error) {
	res, err := EvalScored(q, ix, reg, opts)
	if err != nil {
		return nil, err
	}
	return res.Nodes, nil
}

// EvalScored evaluates a COMP query, returning nodes and (when a scorer is
// configured) per-node scores. TuplesBuilt in the returned evaluator work
// estimate is exposed through Explain-style instrumentation in tests.
func EvalScored(q lang.Query, ix *invlist.Index, reg *pred.Registry, opts Options) (*fta.Result, error) {
	plan, err := Compile(q, reg)
	if err != nil {
		return nil, err
	}
	ev := &fta.Evaluator{Index: ix, Reg: reg, Scorer: opts.Scorer}
	return ev.Eval(plan)
}
