package fta

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fulltext/internal/core"
	"fulltext/internal/ftc"
	"fulltext/internal/invlist"
	"fulltext/internal/pred"
)

func corpusAndIndex(t testing.TB, docs ...string) (*core.Corpus, *invlist.Index) {
	t.Helper()
	c := core.NewCorpus()
	for i, text := range docs {
		if _, err := c.Add(fmt.Sprintf("d%d", i+1), text); err != nil {
			t.Fatal(err)
		}
	}
	return c, invlist.Build(c)
}

func evalNodes(t testing.TB, ix *invlist.Index, e Expr) []core.NodeID {
	t.Helper()
	ev := &Evaluator{Index: ix, Reg: pred.Default()}
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	return res.Nodes
}

func sameIDs(a []core.NodeID, b ...core.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The Section 2.3.1 example queries.
func TestSection231Examples(t *testing.T) {
	_, ix := corpusAndIndex(t,
		"test usability of the software test", // node 1
		"the quality test ran for usability",  // node 2
		"nothing relevant here",               // node 3
		"test test",                           // node 4
	)

	// π_CNode(R_test ⋈ R_usability)
	both := Project{Join{Token{"test"}, Token{"usability"}}, nil}
	if got := evalNodes(t, ix, both); !sameIDs(got, 1, 2) {
		t.Errorf("both = %v, want [1 2]", got)
	}

	// π_CNode(σ_distance(p1,p2,5)(R_test ⋈ R_usability))
	dist := Project{Select{Join{Token{"test"}, Token{"usability"}}, "distance", []int{0, 1}, []int{5}}, nil}
	if got := evalNodes(t, ix, dist); !sameIDs(got, 1, 2) {
		t.Errorf("distance = %v, want [1 2]", got)
	}

	// π_CNode(σ_diffpos(att1,att2)(R_test ⋈ R_test)) ⋈ (SearchContext − π_CNode(R_usability))
	twoTests := Join{
		Project{Select{Join{Token{"test"}, Token{"test"}}, "diffpos", []int{0, 1}, nil}, nil},
		Diff{SearchContext{}, Project{Token{"usability"}, nil}},
	}
	if got := evalNodes(t, ix, twoTests); !sameIDs(got, 4) {
		t.Errorf("two-tests = %v, want [4]", got)
	}
}

func TestWidthValidation(t *testing.T) {
	reg := pred.Default()
	cases := []struct {
		e    Expr
		want int
		ok   bool
	}{
		{SearchContext{}, 0, true},
		{HasPos{}, 1, true},
		{Token{"x"}, 1, true},
		{Join{Token{"x"}, HasPos{}}, 2, true},
		{Project{Join{Token{"x"}, Token{"y"}}, []int{1}}, 1, true},
		{Project{Token{"x"}, []int{2}}, 0, false},                      // out of range
		{Project{Join{Token{"x"}, Token{"y"}}, []int{0, 0}}, 0, false}, // duplicate
		{Select{Join{Token{"x"}, Token{"y"}}, "distance", []int{0, 1}, []int{3}}, 2, true},
		{Select{Token{"x"}, "distance", []int{0, 1}, []int{3}}, 0, false},              // col range
		{Select{Token{"x"}, "nope", []int{0}, nil}, 0, false},                          // unknown pred
		{Select{Join{Token{"x"}, Token{"y"}}, "distance", []int{0, 1}, nil}, 0, false}, // const arity
		{Union{Token{"x"}, Token{"y"}}, 1, true},
		{Union{Token{"x"}, SearchContext{}}, 0, false}, // width mismatch
		{Intersect{HasPos{}, Token{"x"}}, 1, true},
		{Diff{SearchContext{}, SearchContext{}}, 0, true},
		{Diff{SearchContext{}, HasPos{}}, 0, false},
	}
	for _, tc := range cases {
		w, err := Width(tc.e, reg)
		if tc.ok && (err != nil || w != tc.want) {
			t.Errorf("Width(%s) = %d, %v; want %d", tc.e, w, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("Width(%s) should fail", tc.e)
		}
	}
	if err := ValidateQuery(Token{"x"}, reg); err == nil {
		t.Errorf("width-1 expression accepted as query")
	}
	if err := ValidateQuery(Project{Token{"x"}, nil}, reg); err != nil {
		t.Errorf("width-0 query rejected: %v", err)
	}
}

func TestSetOperators(t *testing.T) {
	_, ix := corpusAndIndex(t, "a b", "a", "b", "c")
	pa := Project{Token{"a"}, nil}
	pb := Project{Token{"b"}, nil}
	if got := evalNodes(t, ix, Union{pa, pb}); !sameIDs(got, 1, 2, 3) {
		t.Errorf("union = %v", got)
	}
	if got := evalNodes(t, ix, Intersect{pa, pb}); !sameIDs(got, 1) {
		t.Errorf("intersect = %v", got)
	}
	if got := evalNodes(t, ix, Diff{pa, pb}); !sameIDs(got, 2) {
		t.Errorf("diff = %v", got)
	}
	if got := evalNodes(t, ix, Diff{SearchContext{}, pa}); !sameIDs(got, 3, 4) {
		t.Errorf("context diff = %v", got)
	}
}

func TestJoinWithWidthZero(t *testing.T) {
	// Join with a width-0 relation acts as a node-level semijoin.
	_, ix := corpusAndIndex(t, "a b", "a", "b")
	e := Project{Join{Token{"a"}, Project{Token{"b"}, nil}}, nil}
	if got := evalNodes(t, ix, e); !sameIDs(got, 1) {
		t.Errorf("semijoin = %v, want [1]", got)
	}
}

func TestProjectDedup(t *testing.T) {
	_, ix := corpusAndIndex(t, "a a a")
	ev := &Evaluator{Index: ix, Reg: pred.Default()}
	rel, err := ev.EvalRelation(Project{Token{"a"}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel[1]) != 1 {
		t.Errorf("projection to CNode must dedup: %d tuples", len(rel[1]))
	}
}

func TestEvalRelationWidths(t *testing.T) {
	_, ix := corpusAndIndex(t, "x y")
	ev := &Evaluator{Index: ix, Reg: pred.Default()}
	rel, err := ev.EvalRelation(Join{Token{"x"}, Token{"y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel[1]) != 1 || len(rel[1][0].Pos) != 2 {
		t.Fatalf("join relation = %+v", rel)
	}
	if rel[1][0].Pos[0].Ord != 1 || rel[1][0].Pos[1].Ord != 2 {
		t.Fatalf("join positions = %+v", rel[1][0].Pos)
	}
}

// randomFTA generates random well-formed algebra expressions.
func randomFTA(rng *rand.Rand, vocab []string, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return HasPos{}
		case 1:
			return SearchContext{}
		default:
			return Token{vocab[rng.Intn(len(vocab))]}
		}
	}
	reg := pred.Default()
	e := randomFTA(rng, vocab, depth-1)
	w, _ := Width(e, reg)
	switch rng.Intn(6) {
	case 0:
		if w == 0 {
			return e
		}
		cols := rng.Perm(w)[:rng.Intn(w+1)]
		return Project{e, cols}
	case 1:
		return Join{e, randomFTA(rng, vocab, depth-1)}
	case 2:
		if w >= 2 {
			return Select{e, "distance", []int{rng.Intn(w), rng.Intn(w)}, []int{rng.Intn(5)}}
		}
		if w == 1 {
			return Select{e, "eqpos", []int{0, 0}, nil}
		}
		return e
	case 3, 4, 5:
		r := randomFTA(rng, vocab, depth-1)
		wr, _ := Width(r, reg)
		if wr != w {
			// Make widths agree by projecting both to CNode.
			if w > 0 {
				e = Project{e, nil}
			}
			if wr > 0 {
				r = Project{r, nil}
			}
		}
		switch rng.Intn(3) {
		case 0:
			return Union{e, r}
		case 1:
			return Intersect{e, r}
		default:
			return Diff{e, r}
		}
	}
	return e
}

func randomCorpus(rng *rand.Rand, vocab []string, nDocs, maxLen int) *core.Corpus {
	c := core.NewCorpus()
	for i := 0; i < nDocs; i++ {
		n := rng.Intn(maxLen + 1)
		words := make([]string, n)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		c.MustAdd(fmt.Sprintf("doc%d", i), strings.Join(words, " "))
	}
	return c
}

// comprehension evaluates the calculus comprehension
// {(n,p1..pk) | ⋀ hasPos ∧ expr} by enumeration, as ground truth for the
// Lemma 1 translation.
func comprehension(t *testing.T, d *core.Doc, reg *pred.Registry, e ftc.Expr, vars []string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	var rec func(i int, env ftc.Env, key string)
	rec = func(i int, env ftc.Env, key string) {
		if i == len(vars) {
			ok, err := ftc.EvalEnv(d, reg, e, env)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out[key] = true
			}
			return
		}
		for _, p := range d.Positions {
			env[vars[i]] = p
			rec(i+1, env, key+fmt.Sprint(p.Ord)+",")
		}
		delete(env, vars[i])
	}
	rec(0, ftc.Env{}, "")
	return out
}

// TestTheorem1Lemma1 checks FTA→FTC: the translated calculus expression's
// comprehension equals the materialized relation, on random expressions and
// corpora.
func TestTheorem1Lemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	for trial := 0; trial < 120; trial++ {
		e := randomFTA(rng, vocab, 2)
		w, err := Width(e, reg)
		if err != nil || w > 3 {
			continue
		}
		cexpr, vars, err := ToFTC(e, reg)
		if err != nil {
			t.Fatalf("ToFTC(%s): %v", e, err)
		}
		if len(vars) != w {
			t.Fatalf("ToFTC(%s): %d vars for width %d", e, len(vars), w)
		}
		c := randomCorpus(rng, vocab, 4, 5)
		ix := invlist.Build(c)
		ev := &Evaluator{Index: ix, Reg: reg}
		rel, err := ev.EvalRelation(e)
		if err != nil {
			t.Fatalf("EvalRelation(%s): %v", e, err)
		}
		for _, d := range c.Docs() {
			want := comprehension(t, d, reg, cexpr, vars)
			got := make(map[string]bool)
			for _, tup := range rel[d.Node] {
				k := ""
				for _, p := range tup.Pos {
					k += fmt.Sprint(p.Ord) + ","
				}
				got[k] = true
			}
			if len(got) != len(want) {
				t.Fatalf("expr %s node %d: alg=%v calc=%v (ftc: %s, vars %v)", e, d.Node, got, want, cexpr, vars)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("expr %s node %d: missing tuple %s", e, d.Node, k)
				}
			}
		}
	}
}

// TestTheorem1Lemma2 checks FTC→FTA: compiled algebra queries agree with the
// calculus oracle on random closed expressions and corpora.
func TestTheorem1Lemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	gen := &ftc.Gen{Rng: rng, Vocab: vocab, Reg: reg,
		Preds: []string{"distance", "ordered", "samepara", "diffpos"}, MaxDepth: 4}
	for trial := 0; trial < 120; trial++ {
		q := gen.Closed()
		ae, err := Compile(q, reg)
		if err != nil {
			t.Fatalf("Compile(%s): %v", q, err)
		}
		c := randomCorpus(rng, vocab, 5, 6)
		ix := invlist.Build(c)
		want, err := ftc.Query(c, reg, q)
		if err != nil {
			t.Fatal(err)
		}
		ev := &Evaluator{Index: ix, Reg: reg}
		res, err := ev.Eval(ae)
		if err != nil {
			t.Fatalf("Eval(compiled %s): %v", q, err)
		}
		if !sameIDs(res.Nodes, want...) {
			t.Fatalf("query %s: algebra=%v calculus=%v\nplan:\n%s", q, res.Nodes, want, Tree(ae))
		}
	}
}

// TestTheorem1RoundTrip: FTA → FTC → FTA preserves query results.
func TestTheorem1RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vocab := []string{"aa", "bb"}
	reg := pred.Default()
	for trial := 0; trial < 80; trial++ {
		e := randomFTA(rng, vocab, 2)
		w, err := Width(e, reg)
		if err != nil {
			continue
		}
		if w != 0 {
			e = Project{e, nil}
		}
		cexpr, _, err := ToFTC(e, reg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Compile(cexpr, reg)
		if err != nil {
			t.Fatalf("Compile(ToFTC(%s)) = %s: %v", e, cexpr, err)
		}
		c := randomCorpus(rng, vocab, 4, 4)
		ix := invlist.Build(c)
		ev := &Evaluator{Index: ix, Reg: reg}
		r1, err := ev.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ev.Eval(back)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(r1.Nodes, r2.Nodes...) {
			t.Fatalf("round trip changed results: %v vs %v for %s", r1.Nodes, r2.Nodes, e)
		}
	}
}

func TestCompileRejectsOpen(t *testing.T) {
	reg := pred.Default()
	if _, err := Compile(ftc.HasToken{Var: "p", Tok: "x"}, reg); err == nil {
		t.Errorf("open expression compiled")
	}
}

func TestCompileFigure4Shape(t *testing.T) {
	// SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND
	// samepara(p1,p2) AND NOT samesent(p1,p2) AND distance(p1,p2,5))
	// must compile to selections over a join of two scans — no HasPos
	// padding, no intersections.
	reg := pred.Default()
	q := ftc.Exists{Var: "p1", Body: ftc.Exists{Var: "p2", Body: ftc.Conj(
		ftc.HasToken{Var: "p1", Tok: "usability"},
		ftc.HasToken{Var: "p2", Tok: "software"},
		ftc.PredCall{Name: "samepara", Vars: []string{"p1", "p2"}},
		ftc.PredCall{Name: "not_samesent", Vars: []string{"p1", "p2"}},
		ftc.PredCall{Name: "distance", Vars: []string{"p1", "p2"}, Consts: []int{5}},
	)}}
	ae, err := Compile(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	plan := Tree(ae)
	for _, want := range []string{`scan ("usability")`, `scan ("software")`, "join", "samepara", "not_samesent", "distance", "project (CNode)"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	for _, bad := range []string{"scan (ANY)", "intersect"} {
		if strings.Contains(plan, bad) {
			t.Errorf("plan contains %q (padding not eliminated):\n%s", bad, plan)
		}
	}
}

// TestRelationsAreSortedAndDuplicateFree pins what Union, Intersect and
// Diff merge on: every operator, fed relations sorted by comparePos without
// two equal tuples, returns one, so every relation is strictly increasing.
func TestRelationsAreSortedAndDuplicateFree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	for trial := 0; trial < 150; trial++ {
		e := randomFTA(rng, vocab, 3)
		if _, err := Width(e, reg); err != nil {
			continue
		}
		ev := &Evaluator{Index: invlist.Build(randomCorpus(rng, vocab, 4, 6)), Reg: reg}
		rel, err := ev.EvalRelation(e)
		if err != nil {
			t.Fatal(err)
		}
		for n, tuples := range rel {
			for i := 1; i < len(tuples); i++ {
				if comparePos(tuples[i-1].Pos, tuples[i].Pos) >= 0 {
					t.Fatalf("%s on node %d: tuples %v then %v", e, n, tuples[i-1].Pos, tuples[i].Pos)
				}
			}
		}
	}
}

func TestTreeRendering(t *testing.T) {
	e := Project{Select{Join{Token{"a"}, HasPos{}}, "distance", []int{0, 1}, []int{5}}, nil}
	s := Tree(e)
	for _, want := range []string{"project (CNode)", "distance (att1,att2,5)", "join", `scan ("a")`, "scan (ANY)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Tree missing %q:\n%s", want, s)
		}
	}
	s2 := Tree(Union{Intersect{SearchContext{}, SearchContext{}}, Diff{SearchContext{}, SearchContext{}}})
	for _, want := range []string{"union", "intersect", "difference", "scan (SearchContext)"} {
		if !strings.Contains(s2, want) {
			t.Errorf("Tree missing %q:\n%s", want, s2)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := Project{Select{Join{Token{"a"}, Token{"b"}}, "distance", []int{0, 1}, []int{2}}, []int{0}}
	s := e.String()
	for _, want := range []string{"R['a']", "R['b']", "join", "select[distance(att1,att2,2)]", "project[CNode,att1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestTuplesBuiltCounter(t *testing.T) {
	_, ix := corpusAndIndex(t, "a b a b a b")
	ev := &Evaluator{Index: ix, Reg: pred.Default()}
	if _, err := ev.Eval(Project{Join{Token{"a"}, Token{"b"}}, nil}); err != nil {
		t.Fatal(err)
	}
	// 3 + 3 leaf tuples, 9 join tuples, 1 projected tuple.
	if ev.TuplesBuilt != 3+3+9+1 {
		t.Errorf("TuplesBuilt = %d, want 16", ev.TuplesBuilt)
	}
}
