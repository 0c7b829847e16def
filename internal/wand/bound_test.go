package wand

// Property tests for the two things the fast path assumes of every query
// Analyze admits (package comment): Matches is a necessary condition for the
// algebra to accept a node, and the per-leaf bound sum dominates the
// evaluated score under both scoring models.

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
	"fulltext/internal/score"
)

var propVocab = []string{"aa", "bb", "cc", "dd"}

// propCorpus builds a small random corpus with repeated tokens (so leaf
// aggregates differ from single-tuple scores), sentence and paragraph
// breaks, and the occasional empty document.
func propCorpus(rng *rand.Rand) *invlist.Index {
	c := core.NewCorpus()
	for i := 0; i < 8; i++ {
		n := rng.Intn(14)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteString(propVocab[rng.Intn(len(propVocab))])
			sb.WriteString([]string{" ", " ", " ", ". ", "\n\n"}[rng.Intn(5)])
		}
		c.MustAdd(fmt.Sprintf("doc%d", i), sb.String())
	}
	return invlist.Build(c)
}

// fragGen draws COMP queries around the eligible fragment: closed Boolean
// structure over literals and existential blocks, the blocks mixing HAS
// atoms, filters and — sometimes — the shapes Analyze must decline.
type fragGen struct {
	rng  *rand.Rand
	nvar int
}

func (g *fragGen) tok() string { return propVocab[g.rng.Intn(len(propVocab))] }

func (g *fragGen) fresh() string {
	g.nvar++
	return fmt.Sprintf("p%d", g.nvar)
}

func (g *fragGen) closed(depth int) lang.Query {
	if depth <= 0 {
		return lang.Lit{Tok: g.tok()}
	}
	switch g.rng.Intn(8) {
	case 0:
		return lang.Lit{Tok: g.tok()}
	case 1:
		return lang.And{L: g.closed(depth - 1), R: g.closed(depth - 1)}
	case 2:
		return lang.Or{L: g.closed(depth - 1), R: g.closed(depth - 1)}
	case 3:
		return lang.And{L: g.closed(depth - 1), R: lang.Not{Q: g.closed(depth - 1)}}
	default:
		return g.block(depth)
	}
}

func (g *fragGen) pred(vars []string) lang.Query {
	v := func() string { return vars[g.rng.Intn(len(vars))] }
	switch g.rng.Intn(8) {
	case 0:
		return lang.Pred{Name: "ordered", Vars: []string{v(), v()}}
	case 1:
		return lang.Pred{Name: "samepara", Vars: []string{v(), v()}}
	case 2:
		return lang.Pred{Name: "not_distance", Vars: []string{v(), v()}, Consts: []int{g.rng.Intn(4)}}
	case 3:
		return lang.Not{Q: lang.Pred{Name: "samesent", Vars: []string{v(), v()}}}
	case 4:
		return lang.Pred{Name: "window3", Vars: []string{v(), v(), v()}, Consts: []int{g.rng.Intn(8)}}
	default:
		return lang.Pred{Name: "distance", Vars: []string{v(), v()}, Consts: []int{g.rng.Intn(8)}}
	}
}

func (g *fragGen) block(depth int) lang.Query {
	vars := make([]string, 1+g.rng.Intn(3))
	var conj []lang.Query
	for i := range vars {
		vars[i] = g.fresh()
		switch g.rng.Intn(10) {
		case 0:
			conj = append(conj, lang.Or{L: lang.Has{Var: vars[i], Tok: g.tok()}, R: lang.Has{Var: vars[i], Tok: g.tok()}})
		case 1:
			conj = append(conj, lang.HasAny{Var: vars[i]}) // declines outside NOT
		default:
			conj = append(conj, lang.Has{Var: vars[i], Tok: g.tok()})
		}
	}
	for n := g.rng.Intn(4); n > 0; n-- {
		conj = append(conj, g.pred(vars))
	}
	v := vars[g.rng.Intn(len(vars))]
	switch g.rng.Intn(8) {
	case 0:
		conj = append(conj, lang.Not{Q: lang.Has{Var: v, Tok: g.tok()}})
	case 1:
		p := g.fresh()
		conj = append(conj, lang.Not{Q: lang.Some{Var: p, Q: lang.And{
			L: lang.And{L: lang.Has{Var: p, Tok: g.tok()}, R: lang.HasAny{Var: p}},
			R: lang.Pred{Name: "distance", Vars: []string{v, p}, Consts: []int{g.rng.Intn(5)}}}}})
	case 2:
		conj = append(conj, g.closed(depth-1))
	}
	if g.rng.Intn(6) == 0 { // conjunct order decides how the plan compiles
		g.rng.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })
	}
	q := conj[0]
	for _, c := range conj[1:] {
		q = lang.And{L: q, R: c}
	}
	for i := len(vars) - 1; i >= 0; i-- {
		q = lang.Some{Var: vars[i], Q: q}
	}
	return q
}

// checkAdmitted holds the two properties, and the fast path's equality
// with the full scan, for one admitted query on one index.
func checkAdmitted(t *testing.T, norm lang.Query, a *Analysis, ix *invlist.Index, reg *pred.Registry) {
	t.Helper()
	plan, err := fta.Compile(lang.ToFTC(norm), reg)
	if err != nil {
		t.Fatalf("%s: compile: %v", norm, err)
	}
	models := map[string]Scorer{
		"tfidf": score.NewTFIDFWith(ix, ix, score.TokensOf(norm)),
		"pra":   score.NewPRAWith(ix, ix),
	}
	for name, sc := range models {
		ev := &fta.Evaluator{Index: ix, Reg: reg, Scorer: sc}
		var global float64
		for _, tok := range a.Tokens {
			global += float64(a.Count[tok]) * sc.UpperBound(tok)
		}
		for n := 1; n <= ix.NumNodes(); n++ {
			node := core.NodeID(n)
			matched, s, err := ev.EvalNode(plan, node)
			if err != nil {
				t.Fatalf("%s: %v", norm, err)
			}
			if !matched {
				continue
			}
			present := func(tok string) bool { return ix.List(tok).Find(node) != nil }
			if !a.Matches(present) {
				t.Fatalf("%s: Matches rejects node %d, which the algebra accepts", norm, n)
			}
			// The induction's own claim: the node's score is dominated by
			// the aggregates of its own leaves, not only by their maxima.
			var local float64
			for _, tok := range a.Tokens {
				_, leaf, err := ev.EvalNode(fta.Project{In: fta.Token{Tok: tok}}, node)
				if err != nil {
					t.Fatal(err)
				}
				local += float64(a.Count[tok]) * leaf
			}
			if s > boundSlack*local {
				t.Fatalf("%s [%s]: node %d scores %g above its leaf bound %g\nplan:\n%s", norm, name, n, s, local, fta.Tree(plan))
			}
			if s > boundSlack*global {
				t.Fatalf("%s [%s]: node %d scores %g above the upper-bound sum %g", norm, name, n, s, global)
			}
		}
		res, err := ev.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		want := score.Rank(res)
		for _, k := range []int{1, 3, 100} {
			got, err := Eval(ev, plan, a, sc, k, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w := want
			if k < len(w) {
				w = w[:k]
			}
			if len(got) != len(w) {
				t.Fatalf("%s [%s] k=%d: fast path %v, full scan %v", norm, name, k, got, w)
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("%s [%s] k=%d: fast path %v, full scan %v", norm, name, k, got, w)
				}
			}
		}
	}
}

func TestAdmittedQueriesAreBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	reg := pred.Default()
	g := &fragGen{rng: rng}
	admitted, declined := 0, map[string]int{}
	for trial := 0; trial < 600; trial++ {
		norm := lang.Normalize(g.closed(2), reg)
		if err := lang.Validate(norm, reg); err != nil {
			t.Fatalf("%s: %v", norm, err)
		}
		a, why := Analyze(norm)
		if a == nil {
			declined[why]++
			continue
		}
		admitted++
		checkAdmitted(t, norm, a, propCorpus(rng), reg)
	}
	if admitted < 200 {
		t.Fatalf("only %d of 600 generated queries were admitted (declined: %v): the property is barely exercised", admitted, declined)
	}
	for _, why := range []string{DeclineHasAny, DeclineUnboundPred, DeclineFreeNot} {
		if declined[why] == 0 {
			t.Errorf("the generator never produced a %q decline: %v", why, declined)
		}
	}
}

// TestAdmittedCalculusQueriesAreBounded draws from the calculus generator
// the engine-agreement tests use: arbitrary closed expressions, of which
// Analyze admits a minority.
func TestAdmittedCalculusQueriesAreBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1812))
	reg := pred.Default()
	gen := &ftc.Gen{Rng: rng, Vocab: propVocab, Reg: reg,
		Preds: []string{"distance", "ordered", "samepara", "diffpos", "not_distance"}, MaxDepth: 4}
	admitted := 0
	for trial := 0; trial < 1500; trial++ {
		norm := lang.Normalize(lang.FromFTC(gen.Closed()), reg)
		a, _ := Analyze(norm)
		if a == nil {
			continue
		}
		admitted++
		checkAdmitted(t, norm, a, propCorpus(rng), reg)
	}
	if admitted < 100 {
		t.Fatalf("only %d of 1500 calculus queries were admitted", admitted)
	}
}

// TestDeclinedShapesBreakTheBound shows the declines are needed, not
// cautious: under PRA a variable ranging over IL_ANY multiplies one scored
// tuple into many, and their noisy-or exceeds the leaf's bound.
func TestDeclinedShapesBreakTheBound(t *testing.T) {
	c := core.NewCorpus()
	c.MustAdd("d1", "aa xx xx xx xx xx xx xx xx")
	c.MustAdd("d2", "aa")
	c.MustAdd("d3", "yy")
	c.MustAdd("d4", "zz")
	ix := invlist.Build(c)
	reg := pred.Default()
	q, err := lang.Parse(lang.DialectCOMP, `SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS ANY AND distance(p1,p2,8))`)
	if err != nil {
		t.Fatal(err)
	}
	norm := lang.Normalize(q, reg)
	if a, why := Analyze(norm); a != nil || why != DeclineHasAny {
		t.Fatalf("declined with %q (analysis nil: %v), want %q", why, a == nil, DeclineHasAny)
	}
	plan, err := fta.Compile(lang.ToFTC(norm), reg)
	if err != nil {
		t.Fatal(err)
	}
	sc := score.NewPRAWith(ix, ix)
	ev := &fta.Evaluator{Index: ix, Reg: reg, Scorer: sc}
	matched, s, err := ev.EvalNode(plan, 1)
	if err != nil || !matched {
		t.Fatalf("matched=%v err=%v", matched, err)
	}
	if ub := sc.UpperBound("aa"); s <= ub {
		t.Fatalf("score %g within the leaf bound %g: the shape no longer needs declining", s, ub)
	}
}
