package lang

import (
	"sort"

	"fulltext/internal/pred"
)

// Class places a query in the Figure 3 language hierarchy. Classes are
// ordered by expressiveness/cost: BOOL-NONEG ⊂ BOOL ⊂ PPRED ⊂ NPRED ⊂
// COMP. The classifier is syntactic and sound (a query classified into a
// class is evaluable by that class's engine); queries it cannot place fall
// back to COMP, which is complete.
type Class int

const (
	// ClassBoolNoNeg: no ANY, negation only as "Query AND NOT Query"
	// (Section 5.3).
	ClassBoolNoNeg Class = iota
	// ClassBool: Boolean constructs including ANY and free-standing NOT.
	ClassBool
	// ClassPPred: single-scan evaluable — positive predicates, SOME,
	// closed NOT operands (Section 5.5).
	ClassPPred
	// ClassNPred: adds negative predicates, evaluated by permutation
	// threads (Section 5.6).
	ClassNPred
	// ClassComp: requires the complete (materializing) engine.
	ClassComp
)

func (c Class) String() string {
	switch c {
	case ClassBoolNoNeg:
		return "BOOL-NONEG"
	case ClassBool:
		return "BOOL"
	case ClassPPred:
		return "PPRED"
	case ClassNPred:
		return "NPRED"
	default:
		return "COMP"
	}
}

// DesugarNegPreds rewrites NOT pred(...) into the registered complement
// predicate (NOT distance → not_distance, NOT eqpos → diffpos, ...), which
// lets the NPRED engine evaluate negated positive predicates natively. It
// also removes double negations uncovered by the rewrite.
func DesugarNegPreds(q Query, reg *pred.Registry) Query {
	switch x := q.(type) {
	case Not:
		if p, ok := x.Q.(Pred); ok {
			if d, found := reg.Lookup(p.Name); found && d.Complement != "" {
				return Pred{Name: d.Complement, Vars: append([]string(nil), p.Vars...),
					Consts: append([]int(nil), p.Consts...)}
			}
		}
		if inner, ok := x.Q.(Not); ok {
			return DesugarNegPreds(inner.Q, reg)
		}
		return Not{DesugarNegPreds(x.Q, reg)}
	case And:
		return And{DesugarNegPreds(x.L, reg), DesugarNegPreds(x.R, reg)}
	case Or:
		return Or{DesugarNegPreds(x.L, reg), DesugarNegPreds(x.R, reg)}
	case Some:
		return Some{x.Var, DesugarNegPreds(x.Q, reg)}
	case Every:
		return Every{x.Var, DesugarNegPreds(x.Q, reg)}
	default:
		return q
	}
}

// Classify places a normalized query (see Normalize) in the hierarchy.
func Classify(q Query, reg *pred.Registry) Class {
	if isBoolNoNeg(q) {
		return ClassBoolNoNeg
	}
	if isBool(q) {
		return ClassBool
	}
	if ok, worst := isPipelined(q, reg); ok {
		if worst == pred.Negative {
			return ClassNPred
		}
		return ClassPPred
	}
	return ClassComp
}

// isBoolNoNeg: Section 5.3's BOOL-NONEG grammar — string literals only,
// NOT only in the "AND NOT" form.
func isBoolNoNeg(q Query) bool {
	switch x := q.(type) {
	case Lit:
		return true
	case And:
		r := x.R
		if n, ok := r.(Not); ok {
			return isBoolNoNeg(x.L) && isBoolNoNeg(n.Q)
		}
		if n, ok := x.L.(Not); ok {
			return isBoolNoNeg(x.R) && isBoolNoNeg(n.Q)
		}
		return isBoolNoNeg(x.L) && isBoolNoNeg(x.R)
	case Or:
		return isBoolNoNeg(x.L) && isBoolNoNeg(x.R)
	default:
		return false
	}
}

// isBool: the full BOOL grammar of Section 4.1.
func isBool(q Query) bool {
	switch x := q.(type) {
	case Lit, Any:
		return true
	case Not:
		return isBool(x.Q)
	case And:
		return isBool(x.L) && isBool(x.R)
	case Or:
		return isBool(x.L) && isBool(x.R)
	default:
		return false
	}
}

// isPipelined reports whether q fits the fragment the pipelined engines
// evaluate in a single forward scan of the query token inverted lists:
//
//   - atoms are literals or HAS bindings (no ANY, no HAS ANY: both need
//     IL_ANY);
//   - SOME but not EVERY (a universal needs IL_ANY);
//   - NOT only over closed subqueries (node-level anti-join);
//   - every predicate is Positive or Negative class, with all variables
//     bound by HAS scans within the same conjunctive block;
//   - OR branches bind the same free variables.
//
// worst reports the strongest predicate class used (Positive < Negative).
func isPipelined(q Query, reg *pred.Registry) (ok bool, worst pred.Class) {
	worst = pred.Positive
	var rec func(q Query) bool
	rec = func(q Query) bool {
		switch x := q.(type) {
		case Lit:
			return true
		case Has:
			return true
		case Any, HasAny, Every:
			return false
		case Not:
			// NOT is only evaluable as a node-level anti-join inside a
			// conjunction with at least one positive producer; the And case
			// intercepts that form, so a NOT reached here is out of
			// fragment.
			return false
		case Or:
			// Branches must agree on free variables, and the pipelined
			// union operator handles only closed branches (node-set merge)
			// or a single shared variable (width-1 position merge); wider
			// disjunctions fall back to COMP.
			lf, rf := FreeVars(x.L), FreeVars(x.R)
			if len(lf) != len(rf) || len(lf) > 1 {
				return false
			}
			for i := range lf {
				if lf[i] != rf[i] {
					return false
				}
			}
			return rec(x.L) && rec(x.R)
		case And:
			// Within a conjunctive block, predicates must only use
			// variables bound by HAS atoms of the same block.
			conjs := flattenAnd(q)
			bound := map[string]bool{}
			producers := 0
			for _, c := range conjs {
				for _, v := range BoundVars(c) {
					bound[v] = true
				}
				switch c.(type) {
				case Pred, Not:
				default:
					producers++
				}
			}
			if producers == 0 {
				return false
			}
			for _, c := range conjs {
				if n, isNot := c.(Not); isNot {
					// Node-level anti-join: operand must be closed and
					// itself pipelined.
					if !Closed(n.Q) || !rec(n.Q) {
						return false
					}
					continue
				}
				if p, isPred := c.(Pred); isPred {
					d, found := reg.Lookup(p.Name)
					if !found {
						return false
					}
					switch d.Class {
					case pred.Positive:
					case pred.Negative:
						worst = pred.Negative
					default:
						return false
					}
					for _, v := range p.Vars {
						if !bound[v] {
							return false
						}
					}
					continue
				}
				if !rec(c) {
					return false
				}
			}
			return true
		case Some:
			return rec(x.Q)
		case Pred:
			d, found := reg.Lookup(x.Name)
			if !found {
				return false
			}
			switch d.Class {
			case pred.Positive:
			case pred.Negative:
				worst = pred.Negative
			default:
				return false
			}
			// A bare predicate reached outside an AND block has unbound
			// scan variables unless it has none (impossible for built-ins):
			// the And case intercepts the evaluable ones, so reject here.
			return false
		default:
			return false
		}
	}
	if !rec(q) {
		return false, worst
	}
	return true, worst
}

// flattenAnd returns the conjuncts of a (possibly nested) AND tree.
func flattenAnd(q Query) []Query {
	if a, ok := q.(And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []Query{q}
}

// BoundVars returns the free variables of q that q itself binds to scanned
// token positions in every match: a HAS atom binds its variable, a
// conjunction binds the union of its conjuncts' bindings, a disjunction
// only the intersection. These are the variables a pipelined plan exposes
// as columns.
func BoundVars(q Query) []string {
	set := boundVarSet(q)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func boundVarSet(q Query) map[string]bool {
	switch x := q.(type) {
	case Has:
		return map[string]bool{x.Var: true}
	case And:
		out := boundVarSet(x.L)
		for v := range boundVarSet(x.R) {
			out[v] = true
		}
		return out
	case Or:
		l, r := boundVarSet(x.L), boundVarSet(x.R)
		out := map[string]bool{}
		for v := range l {
			if r[v] {
				out[v] = true
			}
		}
		return out
	case Some:
		out := boundVarSet(x.Q)
		delete(out, x.Var)
		return out
	default:
		return map[string]bool{}
	}
}

// predClassOK is a helper for tests: it reports whether every Pred node in
// q has at most the given class.
func predClassOK(q Query, reg *pred.Registry, maxClass pred.Class) bool {
	switch x := q.(type) {
	case Pred:
		d, ok := reg.Lookup(x.Name)
		if !ok {
			return false
		}
		if d.Class == pred.General {
			return false
		}
		if maxClass == pred.Positive && d.Class == pred.Negative {
			return false
		}
		return true
	case Not:
		return predClassOK(x.Q, reg, maxClass)
	case And:
		return predClassOK(x.L, reg, maxClass) && predClassOK(x.R, reg, maxClass)
	case Or:
		return predClassOK(x.L, reg, maxClass) && predClassOK(x.R, reg, maxClass)
	case Some:
		return predClassOK(x.Q, reg, maxClass)
	case Every:
		return predClassOK(x.Q, reg, maxClass)
	default:
		return true
	}
}
