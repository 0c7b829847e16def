package compeval

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
)

func corpusIx(t testing.TB, docs ...string) (*core.Corpus, *invlist.Index) {
	t.Helper()
	c := core.NewCorpus()
	for i, text := range docs {
		if _, err := c.Add(fmt.Sprintf("d%d", i+1), text); err != nil {
			t.Fatal(err)
		}
	}
	return c, invlist.Build(c)
}

func same(a, b []core.NodeID) bool {
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

// TestFigure4Plan: the Section 5.4 COMP query compiles to the Figure 4
// operator tree — scans of the two tokens, a join, the three predicate
// selections, and a projection to CNode.
func TestFigure4Plan(t *testing.T) {
	reg := pred.Default()
	q, err := lang.Parse(lang.DialectCOMP, `SOME p1 SOME p2 (
		p1 HAS 'usability' AND p2 HAS 'software'
		AND samepara(p1,p2) AND NOT samesent(p1,p2) AND distance(p1,p2,5))`)
	if err != nil {
		t.Fatal(err)
	}
	q = lang.DesugarNegPreds(q, reg)
	e, err := Compile(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	plan := fta.Tree(e)
	for _, want := range []string{
		`scan ("usability")`, `scan ("software")`, "join",
		"samepara", "not_samesent", "distance", "project (CNode)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("Figure 4 plan missing %q:\n%s", want, plan)
		}
	}
	for _, bad := range []string{"scan (ANY)", "intersect"} {
		if strings.Contains(plan, bad) {
			t.Errorf("Figure 4 plan contains %q:\n%s", bad, plan)
		}
	}
}

// TestCompMatchesOracle: the complete engine agrees with the calculus
// interpreter on arbitrary COMP queries, including the ones no other engine
// accepts.
func TestCompMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	gen := &ftc.Gen{Rng: rng, Vocab: vocab, Reg: reg,
		Preds: []string{"distance", "ordered", "samepara", "diffpos", "not_distance"}, MaxDepth: 4}
	for trial := 0; trial < 100; trial++ {
		e := gen.Closed()
		q := lang.FromFTC(e) // arbitrary COMP query
		c := core.NewCorpus()
		for i := 0; i < 5; i++ {
			n := rng.Intn(6)
			words := make([]string, n)
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			c.MustAdd(fmt.Sprintf("doc%d", i), strings.Join(words, " "))
		}
		ix := invlist.Build(c)
		got, err := Eval(q, ix, reg, Options{})
		if err != nil {
			t.Fatalf("Eval(%s): %v", q, err)
		}
		want, err := ftc.Query(c, reg, e)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, want) {
			t.Fatalf("query %s: comp=%v oracle=%v", q, got, want)
		}
	}
}

func TestEveryQueries(t *testing.T) {
	c, ix := corpusIx(t,
		"stop stop stop",
		"stop go",
		"go go",
	)
	reg := pred.Default()
	q, err := lang.Parse(lang.DialectCOMP, `EVERY p (p HAS 'stop')`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(q, ix, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ftc.Query(c, reg, lang.ToFTC(q))
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, want) || !same(got, []core.NodeID{1}) {
		t.Fatalf("EVERY = %v, want [1]", got)
	}
}

func TestCompileError(t *testing.T) {
	reg := pred.Default()
	if _, err := Compile(lang.Pred{Name: "zzz", Vars: []string{"a"}}, reg); err == nil {
		t.Errorf("unknown predicate compiled")
	}
}
