package ppred

// The NPRED engine of Section 5.6: pipelined plans with negative
// predicates run one thread per cursor ordering (RunAll), node sets
// unioned.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/pred"
)

// runNPRED compiles q with negative predicates allowed and runs it under
// the NPRED strategy. stats may be nil.
func runNPRED(q lang.Query, reg *pred.Registry, ix *invlist.Index, stats *Stats, opts OrderOptions) ([]core.NodeID, error) {
	plan, err := CompileNeg(q, reg)
	if err != nil {
		return nil, err
	}
	return plan.RunAll(ix, reg, stats, opts)
}

// The Section 5.6.2 example: tokens "assignment" and "judge" at least 40
// positions apart.
func TestNotDistanceExample(t *testing.T) {
	filler := strings.Repeat("w ", 50)
	c, ix := corpusIx(t,
		"assignment "+filler+"judge end",  // far apart: match
		"assignment judge",                // adjacent: no match
		"judge "+filler+"assignment",      // far apart, reversed: match
		"assignment near a judge "+filler, // close: no match
	)
	q := parse(t, `SOME p1 SOME p2 (p1 HAS 'assignment' AND p2 HAS 'judge' AND not_distance(p1,p2,40))`)
	got, err := runNPRED(q, pred.Default(), ix, nil, OrderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, c, q)
	if !same(got, want) {
		t.Fatalf("npred=%v oracle=%v", got, want)
	}
	if !same(got, []core.NodeID{1, 3}) {
		t.Fatalf("not_distance example = %v, want [1 3]", got)
	}
}

func TestNegativePredicatesBasics(t *testing.T) {
	c, ix := corpusIx(t,
		"aa bb",          // adjacent
		"aa x x x bb",    // 3 intervening
		"bb aa",          // reversed
		"aa bb aa bb",    // the Theorem 5 witness shape
		"aa",             // missing bb
		"cc aa\n\nbb cc", // different paragraphs
	)
	for _, s := range []string{
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_distance(p1,p2,0))`,
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_distance(p1,p2,2))`,
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_ordered(p1,p2))`,
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_samepara(p1,p2))`,
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'aa' AND diffpos(p1,p2))`,
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_distance(p1,p2,0) AND ordered(p1,p2))`,
		// NOT over a positive predicate desugars to the complement.
		`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND NOT distance(p1,p2,0))`,
	} {
		q := parse(t, s)
		got, err := runNPRED(q, pred.Default(), ix, nil, OrderOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want := oracle(t, c, q)
		if !same(got, want) {
			t.Fatalf("%s:\nnpred  = %v\noracle = %v", s, got, want)
		}
	}
}

// negGen generates random pipelined queries with negative predicates.
type negGen struct {
	rng   *rand.Rand
	vocab []string
	n     int
}

func (g *negGen) fresh() string {
	g.n++
	return fmt.Sprintf("p%d", g.n)
}

func (g *negGen) tok() string { return g.vocab[g.rng.Intn(len(g.vocab))] }

func (g *negGen) query() lang.Query {
	q := g.block()
	switch g.rng.Intn(5) {
	case 0:
		q = lang.And{L: q, R: lang.Not{Q: g.block()}}
	case 1:
		q = lang.Or{L: q, R: g.block()}
	}
	return q
}

func (g *negGen) block() lang.Query {
	k := 1 + g.rng.Intn(3)
	vars := make([]string, k)
	var conj []lang.Query
	for i := range vars {
		vars[i] = g.fresh()
		conj = append(conj, lang.Has{Var: vars[i], Tok: g.tok()})
	}
	npreds := 1 + g.rng.Intn(2)
	for i := 0; i < npreds; i++ {
		a := vars[g.rng.Intn(k)]
		b := vars[g.rng.Intn(k)]
		choices := []lang.Pred{
			{Name: "not_distance", Vars: []string{a, b}, Consts: []int{g.rng.Intn(5)}},
			{Name: "not_ordered", Vars: []string{a, b}},
			{Name: "not_samepara", Vars: []string{a, b}},
			{Name: "not_samesent", Vars: []string{a, b}},
			{Name: "diffpos", Vars: []string{a, b}},
			{Name: "distance", Vars: []string{a, b}, Consts: []int{g.rng.Intn(5)}},
			{Name: "ordered", Vars: []string{a, b}},
		}
		conj = append(conj, choices[g.rng.Intn(len(choices))])
	}
	body := conj[0]
	for _, c := range conj[1:] {
		body = lang.And{L: body, R: c}
	}
	var q lang.Query = body
	for i := k - 1; i >= 0; i-- {
		q = lang.Some{Var: vars[i], Q: q}
	}
	return q
}

// TestNPREDMatchesOracle is the main correctness property for negative
// predicates: random mixed-polarity queries agree with the calculus oracle.
func TestNPREDMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	for trial := 0; trial < 250; trial++ {
		g := &negGen{rng: rng, vocab: vocab}
		q := g.query()
		c := randomStructuredCorpus(rng, vocab, 6, 10)
		ix := invlist.Build(c)
		got, err := runNPRED(q, reg, ix, nil, OrderOptions{})
		if err != nil {
			t.Fatalf("run %s: %v", q, err)
		}
		want := oracle(t, c, q)
		if !same(got, want) {
			plan, _ := CompileNeg(q, reg)
			t.Fatalf("query %s:\nnpred  = %v\noracle = %v\nplan:\n%s", q, got, want, plan.Explain())
		}
	}
}

// TestFullOrdersAblation: the full-permutation strategy (the paper's
// toks_Q! bound) returns identical results with at least as many threads.
func TestFullOrdersAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	for trial := 0; trial < 60; trial++ {
		g := &negGen{rng: rng, vocab: vocab}
		q := g.query()
		c := randomStructuredCorpus(rng, vocab, 5, 8)
		ix := invlist.Build(c)
		s1, s2 := &Stats{}, &Stats{}
		partial, err := runNPRED(q, reg, ix, s1, OrderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := runNPRED(q, reg, ix, s2, OrderOptions{FullOrders: true})
		if err != nil {
			t.Fatal(err)
		}
		if !same(partial, full) {
			t.Fatalf("query %s: partial=%v full=%v", q, partial, full)
		}
		if s2.Threads < s1.Threads {
			t.Fatalf("full orders ran fewer threads (%d) than partial (%d)", s2.Threads, s1.Threads)
		}
	}
}

// TestNPREDThreadBound: thread count stays within the toks_Q! complexity
// bound of Section 5.6.4.
func TestNPREDThreadBound(t *testing.T) {
	reg := pred.Default()
	_, ix := corpusIx(t, "aa bb cc dd", "dd cc bb aa")
	q := parse(t, `SOME p1 SOME p2 SOME p3 (p1 HAS 'aa' AND p2 HAS 'bb' AND p3 HAS 'cc'
		AND not_distance(p1,p2,1) AND not_distance(p2,p3,1))`)
	stats := &Stats{}
	if _, err := runNPRED(q, reg, ix, stats, OrderOptions{}); err != nil {
		t.Fatal(err)
	}
	if stats.Threads > 6 { // 3! = 6
		t.Fatalf("threads = %d exceeds 3! = 6", stats.Threads)
	}
	if stats.Threads != 6 {
		t.Logf("partial orders used %d threads (max 6)", stats.Threads)
	}
}

func TestMaxThreadsGuard(t *testing.T) {
	reg := pred.Default()
	_, ix := corpusIx(t, "aa bb")
	q := parse(t, `SOME p1 SOME p2 SOME p3 (p1 HAS 'aa' AND p2 HAS 'bb' AND p3 HAS 'aa'
		AND not_distance(p1,p2,1) AND not_distance(p2,p3,1) AND diffpos(p1,p3))`)
	if _, err := runNPRED(q, reg, ix, nil, OrderOptions{MaxThreads: 2}); err == nil {
		t.Fatalf("MaxThreads guard did not trip")
	}
}

// TestPurePositiveThroughNPRED: the NPRED driver degrades to a single
// PPRED pass when no negative predicates are present.
func TestPurePositiveThroughNPRED(t *testing.T) {
	c, ix := corpusIx(t, "aa bb", "bb aa")
	q := parse(t, `SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND ordered(p1,p2))`)
	stats := &Stats{}
	got, err := runNPRED(q, pred.Default(), ix, stats, OrderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, oracle(t, c, q)) {
		t.Fatalf("wrong result")
	}
	if stats.Threads != 1 {
		t.Fatalf("positive-only query used %d threads", stats.Threads)
	}
}

// TestNegativeInsideNotOperand: a closed NOT operand containing negative
// predicates must be evaluated with its own complete permutation union.
func TestNegativeInsideNotOperand(t *testing.T) {
	c, ix := corpusIx(t,
		"xx yy aa w w w bb",
		"xx yy aa bb",
		"xx yy",
	)
	q := parse(t, `'xx' AND NOT (SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_distance(p1,p2,1)))`)
	got, err := runNPRED(q, pred.Default(), ix, nil, OrderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, c, q)
	if !same(got, want) {
		t.Fatalf("npred=%v oracle=%v", got, want)
	}
}

// TestParallelThreads: the goroutine-based thread execution returns exactly
// the sequential results.
func TestParallelThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	vocab := []string{"aa", "bb", "cc"}
	reg := pred.Default()
	for trial := 0; trial < 60; trial++ {
		g := &negGen{rng: rng, vocab: vocab}
		q := g.query()
		c := randomStructuredCorpus(rng, vocab, 6, 10)
		ix := invlist.Build(c)
		seq, err := runNPRED(q, reg, ix, nil, OrderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s2 := &Stats{}
		par, err := runNPRED(q, reg, ix, s2, OrderOptions{Parallel: true, FullOrders: true})
		if err != nil {
			t.Fatal(err)
		}
		if !same(seq, par) {
			t.Fatalf("query %s: sequential=%v parallel=%v", q, seq, par)
		}
	}
}

// negChain is a block of n scan variables whose negative predicates chain
// all of them, so every one of them must be ordered: n! threads.
func negChain(n int) string {
	var some, conj []string
	for i := 1; i <= n; i++ {
		some = append(some, fmt.Sprintf("SOME p%d", i))
		conj = append(conj, fmt.Sprintf("p%d HAS 'aa'", i))
		if i > 1 {
			conj = append(conj, fmt.Sprintf("not_distance(p%d,p%d,1)", i-1, i))
		}
	}
	return strings.Join(some, " ") + " (" + strings.Join(conj, " AND ") + ")"
}

// TestThreadCapBeforeOrderings: a plan whose orderings exceed MaxThreads is
// refused before any ordering is built (12! would need gigabytes), with
// the error CheckThreads reports for it; a closed sub-plan over the limit
// is refused by CheckThreads too, and by the run that instantiates it.
func TestThreadCapBeforeOrderings(t *testing.T) {
	reg := pred.Default()
	_, ix := corpusIx(t, "aa aa aa", "xx")
	plan, err := CompileNeg(parse(t, negChain(12)), reg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ppred: 479001600 ordering threads exceed limit 50000"
	var runErr error
	allocs := testing.AllocsPerRun(5, func() { _, runErr = plan.RunAll(ix, reg, nil, OrderOptions{}) })
	if runErr == nil || runErr.Error() != want {
		t.Fatalf("RunAll error = %v, want %q", runErr, want)
	}
	if allocs > 100 {
		t.Fatalf("refusing 12! orderings took %.0f allocations, want <= 100", allocs)
	}
	if err := plan.CheckThreads(OrderOptions{}); err == nil || err.Error() != want {
		t.Fatalf("CheckThreads = %v, want %q", err, want)
	}
	if err := plan.CheckThreads(OrderOptions{MaxThreads: 1 << 30}); err != nil {
		t.Fatalf("CheckThreads under a 2^30 limit: %v", err)
	}

	nested, err := Compile(parse(t, `'xx' AND NOT (`+negChain(9)+`)`), reg)
	if err != nil {
		t.Fatal(err)
	}
	const wantNested = "ppred: 362880 ordering threads exceed limit 50000"
	if err := nested.CheckThreads(OrderOptions{}); err == nil || err.Error() != wantNested {
		t.Fatalf("nested CheckThreads = %v, want %q", err, wantNested)
	}
	if _, err := nested.Run(ix, reg, nil); err == nil || err.Error() != wantNested {
		t.Fatalf("nested Run error = %v, want %q", err, wantNested)
	}
}
