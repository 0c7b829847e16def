package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fulltext/internal/core"
	"fulltext/internal/ftc"
	"fulltext/internal/pred"
)

func mustParse(t *testing.T, d Dialect, s string) Query {
	t.Helper()
	q, err := Parse(d, s)
	if err != nil {
		t.Fatalf("Parse(%s, %q): %v", d, s, err)
	}
	return q
}

func TestParseBool(t *testing.T) {
	cases := map[string]string{
		`'test'`:               `'test'`,
		`test`:                 `'test'`,
		`NOT 'usability'`:      `NOT 'usability'`,
		`'a' AND 'b'`:          `'a' AND 'b'`,
		`'a' OR 'b' AND 'c'`:   `'a' OR ('b' AND 'c')`, // AND binds tighter
		`('a' OR 'b') AND 'c'`: `('a' OR 'b') AND 'c'`,
		`ANY`:                  `ANY`,
		`'a' AND NOT 'b'`:      `'a' AND (NOT 'b')`,
		`NOT NOT 'a'`:          `NOT (NOT 'a')`,
		`'don''t'`:             `'don't'`, // escaped quote
		`'software' AND 'users' AND NOT 'testing' OR 'usability'`: `(('software' AND 'users') AND (NOT 'testing')) OR 'usability'`,
	}
	for in, want := range cases {
		q := mustParse(t, DialectBOOL, in)
		if q.String() != want {
			t.Errorf("Parse(%q) = %s, want %s", in, q, want)
		}
	}
}

func TestParseBoolRejectsCompConstructs(t *testing.T) {
	for _, s := range []string{
		`SOME p (p HAS 'x')`,
		`p HAS 'x'`,
		`distance(p1,p2,5)`,
		`dist('a','b',3)`,
		`EVERY p (p HAS ANY)`,
	} {
		if _, err := Parse(DialectBOOL, s); err == nil {
			t.Errorf("BOOL accepted %q", s)
		}
	}
}

func TestParseDist(t *testing.T) {
	q := mustParse(t, DialectDIST, `dist('test','usability',5)`)
	// Desugars to SOME _d1 SOME _d2 (_d1 HAS 'test' AND _d2 HAS 'usability'
	// AND distance(_d1,_d2,5)).
	s := q.String()
	for _, want := range []string{"SOME", "HAS 'test'", "HAS 'usability'", "distance(", ",5)"} {
		if !strings.Contains(s, want) {
			t.Errorf("dist desugar = %s missing %q", s, want)
		}
	}
	// ANY operand omits the HAS conjunct.
	q2 := mustParse(t, DialectDIST, `dist(ANY,'b',0)`)
	if strings.Contains(q2.String(), "HAS ANY") || !strings.Contains(q2.String(), "HAS 'b'") {
		t.Errorf("dist(ANY, b) = %s", q2)
	}
	// DIST still rejects general COMP constructs.
	if _, err := Parse(DialectDIST, `SOME p (p HAS 'x')`); err == nil {
		t.Errorf("DIST accepted SOME")
	}
	if _, err := Parse(DialectDIST, `samepara(p1,p2)`); err == nil {
		t.Errorf("DIST accepted a general predicate")
	}
	// Bad dist arities.
	for _, s := range []string{`dist('a','b')`, `dist('a','b','c')`, `dist('a',3,5)`} {
		if _, err := Parse(DialectDIST, s); err == nil {
			t.Errorf("DIST accepted %q", s)
		}
	}
}

func TestParseComp(t *testing.T) {
	q := mustParse(t, DialectCOMP,
		`SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND samepara(p1,p2) AND NOT samesent(p1,p2) AND distance(p1,p2,5))`)
	s := q.String()
	for _, want := range []string{"SOME p1", "SOME p2", "samepara(p1,p2)", "NOT samesent(p1,p2)", "distance(p1,p2,5)"} {
		if !strings.Contains(s, want) {
			t.Errorf("COMP parse = %s missing %q", s, want)
		}
	}

	// The Theorem 3 and Theorem 5 witness queries from Section 4.3.
	mustParse(t, DialectCOMP, `SOME p1 (NOT p1 HAS 't1')`)
	mustParse(t, DialectCOMP, `SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))`)

	// HAS ANY.
	q3 := mustParse(t, DialectCOMP, `SOME p (p HAS ANY)`)
	if !strings.Contains(q3.String(), "HAS ANY") {
		t.Errorf("HAS ANY = %s", q3)
	}
	// EVERY.
	q4 := mustParse(t, DialectCOMP, `EVERY p (NOT p HAS 'stop')`)
	if !strings.Contains(q4.String(), "EVERY p") {
		t.Errorf("EVERY = %s", q4)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		``, `(`, `)`, `'a' AND`, `AND 'a'`, `'unterminated`,
		`SOME (x)`, `p HAS`, `distance(p1 p2)`, `distance(p1,`,
		`5`, `'a' 'b'`, `NOT`, `distance(p1,p2,'x')`, `#`,
		`SOME p (q HAS 'x')`, // unbound q
	} {
		if _, err := Parse(DialectCOMP, s); err == nil {
			t.Errorf("COMP accepted %q", s)
		}
	}
}

func TestToFTCSemantics(t *testing.T) {
	c := core.NewCorpus()
	c.MustAdd("d1", "test usability of the software test")
	c.MustAdd("d2", "the quality test ran for usability")
	c.MustAdd("d3", "nothing relevant here")
	c.MustAdd("d4", "test test")
	reg := pred.Default()

	run := func(d Dialect, s string) []core.NodeID {
		t.Helper()
		q := mustParse(t, d, s)
		out, err := ftc.Query(c, reg, ToFTC(q))
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		return out
	}
	same := func(a []core.NodeID, b ...core.NodeID) bool {
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

	if got := run(DialectBOOL, `'test' AND 'usability'`); !same(got, 1, 2) {
		t.Errorf("AND = %v", got)
	}
	if got := run(DialectBOOL, `'test' AND NOT 'usability'`); !same(got, 4) {
		t.Errorf("AND NOT = %v", got)
	}
	if got := run(DialectBOOL, `ANY`); !same(got, 1, 2, 3, 4) {
		t.Errorf("ANY = %v", got)
	}
	if got := run(DialectBOOL, `NOT 'test'`); !same(got, 3) {
		t.Errorf("NOT = %v", got)
	}
	if got := run(DialectDIST, `dist('test','usability',0)`); !same(got, 1) {
		t.Errorf("dist 0 = %v", got)
	}
	if got := run(DialectDIST, `dist('test','usability',5)`); !same(got, 1, 2) {
		t.Errorf("dist 5 = %v", got)
	}
	if got := run(DialectCOMP, `SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'test' AND diffpos(p1,p2)) AND NOT 'usability'`); !same(got, 4) {
		t.Errorf("COMP two tests = %v", got)
	}
	if got := run(DialectCOMP, `EVERY p (p HAS 'test')`); !same(got, 4) {
		t.Errorf("EVERY = %v", got)
	}
}

func TestValidate(t *testing.T) {
	reg := pred.Default()
	q := mustParse(t, DialectCOMP, `SOME p1 SOME p2 (p1 HAS 'a' AND distance(p1,p2,3))`)
	if err := Validate(q, reg); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := Pred{Name: "distance", Vars: []string{"p"}, Consts: []int{1}}
	if err := Validate(Some{"p", bad}, reg); err == nil {
		t.Errorf("arity error accepted")
	}
	if err := Validate(Some{"p", Pred{Name: "bogus", Vars: []string{"p"}}}, reg); err == nil {
		t.Errorf("unknown predicate accepted")
	}
}

func TestClassify(t *testing.T) {
	reg := pred.Default()
	cases := []struct {
		q    string
		want Class
	}{
		{`'a' AND 'b'`, ClassBoolNoNeg},
		{`'a' AND NOT 'b'`, ClassBoolNoNeg},
		{`'a' OR 'b'`, ClassBoolNoNeg},
		{`NOT 'a'`, ClassBool},
		{`ANY`, ClassBool},
		{`'a' AND (NOT 'b' OR 'c')`, ClassBool},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,5))`, ClassPPred},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2) AND samepara(p1,p2))`, ClassPPred},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1,p2,40))`, ClassNPred},
		// NOT over a positive predicate desugars to its negative complement.
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND NOT distance(p1,p2,0))`, ClassNPred},
		// AND NOT with a closed operand stays pipelined.
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,5)) AND NOT 'c'`, ClassPPred},
		// EVERY needs IL_ANY: complete engine.
		{`EVERY p (NOT p HAS 'a')`, ClassComp},
		// Unscanned predicate variable: complete engine.
		{`SOME p1 SOME p2 (p1 HAS 'a' AND distance(p1,p2,5))`, ClassComp},
		// OR with mismatched variable sets: complete engine.
		{`SOME p1 SOME p2 ((p1 HAS 'a' OR p2 HAS 'b') AND distance(p1,p2,5))`, ClassComp},
		// HAS ANY needs IL_ANY.
		{`SOME p (p HAS ANY)`, ClassComp},
		// OR branches with equal variable sets stay pipelined.
		{`SOME p (p HAS 'a' OR p HAS 'b')`, ClassPPred},
	}
	for _, tc := range cases {
		q := mustParse(t, DialectCOMP, tc.q)
		if got := Classify(Normalize(q, reg), reg); got != tc.want {
			t.Errorf("Classify(%q) = %s, want %s", tc.q, got, tc.want)
		}
	}
}

func TestDesugarNegPreds(t *testing.T) {
	reg := pred.Default()
	q := mustParse(t, DialectCOMP, `SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND NOT distance(p1,p2,5))`)
	d := DesugarNegPreds(q, reg)
	if !strings.Contains(d.String(), "not_distance(p1,p2,5)") {
		t.Errorf("desugar = %s", d)
	}
	// Double negation collapses back to the positive predicate.
	q2 := Some{"p", And{Has{"p", "a"}, Not{Not{Pred{Name: "eqpos", Vars: []string{"p", "p"}}}}}}
	d2 := DesugarNegPreds(q2, reg)
	if strings.Contains(d2.String(), "NOT") {
		t.Errorf("double negation survived: %s", d2)
	}
	// Desugaring must preserve semantics.
	c := core.NewCorpus()
	c.MustAdd("d1", "a x b")
	c.MustAdd("d2", "a b")
	for _, dd := range c.Docs() {
		w1, err := ftc.Eval(dd, reg, ToFTC(q))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := ftc.Eval(dd, reg, ToFTC(d))
		if err != nil {
			t.Fatal(err)
		}
		if w1 != w2 {
			t.Errorf("desugaring changed semantics on node %d", dd.Node)
		}
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassBoolNoNeg: "BOOL-NONEG", ClassBool: "BOOL",
		ClassPPred: "PPRED", ClassNPred: "NPRED", ClassComp: "COMP",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if DialectBOOL.String() != "BOOL" || DialectDIST.String() != "DIST" || DialectCOMP.String() != "COMP" {
		t.Errorf("Dialect strings wrong")
	}
}

// TestTheorem6CompComplete: every calculus query round-trips through COMP
// (FromFTC) with identical results — the constructive completeness proof.
func TestTheorem6CompComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	reg := pred.Default()
	vocab := []string{"aa", "bb", "cc"}
	gen := &ftc.Gen{Rng: rng, Vocab: vocab, Reg: reg,
		Preds: []string{"distance", "ordered", "samepara", "diffpos", "not_distance"}, MaxDepth: 4}
	for trial := 0; trial < 150; trial++ {
		e := gen.Closed()
		q := FromFTC(e)
		back := ToFTC(q)
		c := randomCorpus(rng, vocab, 5, 6)
		want, err := ftc.Query(c, reg, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ftc.Query(c, reg, back)
		if err != nil {
			t.Fatalf("round-tripped query invalid: %v\noriginal: %s\ncomp: %s", err, e, q)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Theorem 6 violation:\ncalculus: %s -> %v\ncomp:     %s -> %v", e, want, q, got)
		}
	}
}

// TestTheorem4FiniteCompleteness: with a finite token universe, every
// Preds=∅ calculus query translates to an equivalent BOOL query.
func TestTheorem4FiniteCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	reg := pred.Default()
	alphabet := []string{"aa", "bb", "cc"}
	gen := &ftc.Gen{Rng: rng, Vocab: alphabet, Reg: reg, MaxDepth: 4}
	for trial := 0; trial < 150; trial++ {
		e := gen.Closed()
		bq, err := BoolFromFTC(e, alphabet)
		if err != nil {
			t.Fatalf("BoolFromFTC(%s): %v", e, err)
		}
		if !isBool(bq) {
			t.Fatalf("translation left BOOL: %s", bq)
		}
		// Corpora restricted to the alphabet (the finite-T assumption).
		c := randomCorpus(rng, alphabet, 5, 5)
		want, err := ftc.Query(c, reg, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ftc.Query(c, reg, ToFTC(bq))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Theorem 4 violation:\ncalculus: %s -> %v\nbool:     %s -> %v", e, want, bq, got)
		}
	}
}

// enumerate builds all queries of the given depth from atoms and the
// Boolean connectives.
func enumerate(atoms []Query, depth int) []Query {
	out := append([]Query{}, atoms...)
	prev := append([]Query{}, atoms...)
	for d := 1; d < depth; d++ {
		var next []Query
		for _, q := range prev {
			next = append(next, Not{q})
		}
		for _, a := range prev {
			for _, b := range atoms {
				next = append(next, And{a, b}, Or{a, b})
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

// TestTheorem3BoolIncomplete: the witness nodes CN1={t1} and CN2={t1,t2}
// cannot be distinguished by any enumerated BOOL query over T_Q={t1} (plus
// ANY), while the calculus query ∃p ¬hasToken(p,t1) distinguishes them.
func TestTheorem3BoolIncomplete(t *testing.T) {
	reg := pred.Default()
	c := core.NewCorpus()
	c.MustAdd("CN1", "t1")
	c.MustAdd("CN2", "t1 t2")
	cn1, cn2 := c.Doc(1), c.Doc(2)

	witness := ftc.Exists{Var: "p", Body: ftc.Not{E: ftc.HasToken{Var: "p", Tok: "t1"}}}
	w1, _ := ftc.Eval(cn1, reg, witness)
	w2, _ := ftc.Eval(cn2, reg, witness)
	if w1 || !w2 {
		t.Fatalf("witness query should reject CN1 (%v) and accept CN2 (%v)", w1, w2)
	}

	atoms := []Query{Lit{"t1"}, Any{}}
	for _, q := range enumerate(atoms, 4) {
		e := ToFTC(q)
		r1, err := ftc.Eval(cn1, reg, e)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ftc.Eval(cn2, reg, e)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("BOOL query %s distinguishes CN1 from CN2 — contradicts Theorem 3's induction", q)
		}
	}
}

// TestTheorem5DistIncomplete: CN1 = t1·t2·t1 and CN2 = t1·t2·t1·t2 agree on
// every enumerated DIST query, while the calculus query "t1 and t2 not
// adjacent at least once" distinguishes them.
func TestTheorem5DistIncomplete(t *testing.T) {
	reg := pred.Default()
	c := core.NewCorpus()
	c.MustAdd("CN1", "t1 t2 t1")
	c.MustAdd("CN2", "t1 t2 t1 t2")
	cn1, cn2 := c.Doc(1), c.Doc(2)

	witness := mustParse(t, DialectCOMP,
		`SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))`)
	e := ToFTC(witness)
	w1, _ := ftc.Eval(cn1, reg, e)
	w2, _ := ftc.Eval(cn2, reg, e)
	if w1 || !w2 {
		t.Fatalf("witness should reject CN1 (%v) and accept CN2 (%v)", w1, w2)
	}

	var atoms []Query
	for _, tok := range []string{"t1", "t2"} {
		atoms = append(atoms, Lit{tok})
	}
	atoms = append(atoms, Any{})
	operands := []string{"t1", "t2", ""}
	for _, a := range operands {
		for _, b := range operands {
			for d := 0; d <= 3; d++ {
				atoms = append(atoms, distQuery(a, b, d))
			}
		}
	}
	for _, q := range enumerate(atoms, 2) {
		eq := ToFTC(q)
		r1, err := ftc.Eval(cn1, reg, eq)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ftc.Eval(cn2, reg, eq)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("DIST query %s distinguishes CN1 from CN2 — contradicts Theorem 5's induction", q)
		}
	}
}

// distQuery builds the desugared dist(a, b, d); empty operand means ANY.
func distQuery(a, b string, d int) Query {
	v1, v2 := "_x1", "_x2"
	var conj []Query
	if a != "" {
		conj = append(conj, Has{v1, a})
	}
	if b != "" {
		conj = append(conj, Has{v2, b})
	}
	conj = append(conj, Pred{Name: "distance", Vars: []string{v1, v2}, Consts: []int{d}})
	body := conj[0]
	for _, q := range conj[1:] {
		body = And{body, q}
	}
	return Some{v1, Some{v2, body}}
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

func TestFreeVarsAndClosed(t *testing.T) {
	q := And{Has{"a", "x"}, Some{"b", And{Has{"b", "y"}, HasAny{"c"}}}}
	fv := FreeVars(q)
	if len(fv) != 2 || fv[0] != "a" || fv[1] != "c" {
		t.Errorf("FreeVars = %v", fv)
	}
	if Closed(q) {
		t.Errorf("open query reported closed")
	}
	if !Closed(Lit{"x"}) || !Closed(Some{"p", Has{"p", "x"}}) {
		t.Errorf("closed query reported open")
	}
}

func TestPredClassOKHelper(t *testing.T) {
	reg := pred.Default()
	pos := Pred{Name: "distance", Vars: []string{"a", "b"}, Consts: []int{1}}
	neg := Pred{Name: "not_distance", Vars: []string{"a", "b"}, Consts: []int{1}}
	if !predClassOK(pos, reg, pred.Positive) {
		t.Errorf("positive pred rejected")
	}
	if predClassOK(neg, reg, pred.Positive) {
		t.Errorf("negative pred accepted at Positive level")
	}
	if !predClassOK(And{pos, neg}, reg, pred.Negative) {
		t.Errorf("mixed pred rejected at Negative level")
	}
	if predClassOK(Pred{Name: "zzz"}, reg, pred.Negative) {
		t.Errorf("unknown pred accepted")
	}
}

func TestPhraseLiterals(t *testing.T) {
	reg := pred.Default()
	// 'task completion' desugars into ordered adjacency.
	q := mustParse(t, DialectCOMP, `'task completion'`)
	s := q.String()
	for _, want := range []string{"HAS 'task'", "HAS 'completion'", "ordered(", "distance(", ",0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("phrase desugar = %s missing %q", s, want)
		}
	}
	if got := Classify(Normalize(q, reg), reg); got != ClassPPred {
		t.Errorf("phrase classified %s, want PPRED", got)
	}
	// Semantics: adjacency in order.
	c := core.NewCorpus()
	c.MustAdd("d1", "efficient task completion now")
	c.MustAdd("d2", "completion of the task")
	c.MustAdd("d3", "task about completion")
	got, err := ftc.Query(c, reg, ToFTC(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("phrase matched %v, want [1]", got)
	}
	// Works in DIST, composes with Boolean operators.
	q2 := mustParse(t, DialectDIST, `'task completion' AND NOT 'efficient'`)
	got2, err := ftc.Query(c, reg, ToFTC(q2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 0 {
		t.Fatalf("phrase AND NOT = %v, want []", got2)
	}
	// Single-word "phrase" is just a literal.
	if q3 := mustParse(t, DialectCOMP, `' single '`); q3.String() != `'single'` {
		t.Errorf("single-word phrase = %s", q3)
	}
	// BOOL rejects phrases.
	if _, err := Parse(DialectBOOL, `'task completion'`); err == nil {
		t.Errorf("BOOL accepted a phrase literal")
	}
}

// TestParseNeverPanics: the parser returns errors, never panics, on
// arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []rune("ab'() ,519ANDORNOTSMEVYHdistancepq_#\t\né")
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(rs)
		for _, d := range []Dialect{DialectBOOL, DialectDIST, DialectCOMP} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Parse(%s, %q) panicked: %v", d, src, r)
					}
				}()
				q, err := Parse(d, src)
				if err == nil && q == nil {
					t.Fatalf("Parse(%s, %q) returned nil, nil", d, src)
				}
			}()
		}
	}
}
