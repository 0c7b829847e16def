package wand

import (
	"reflect"
	"sort"
	"testing"

	"fulltext/internal/lang"
	"fulltext/internal/pred"
)

func mustParse(t *testing.T, src string) lang.Query {
	t.Helper()
	q, err := lang.Parse(lang.DialectCOMP, src)
	if err != nil {
		t.Fatal(err)
	}
	return lang.Normalize(q, pred.Default())
}

// TestAnalyzeEligibility pins which query shapes take the fast path, with
// their token analysis, and which decline, with the reason.
func TestAnalyzeEligibility(t *testing.T) {
	cases := []struct {
		src      string
		why      string // "" when eligible
		tokens   []string
		required []string
	}{
		// Boolean token queries.
		{`'a'`, "", []string{"a"}, []string{"a"}},
		{`'a' AND 'b'`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`'a' OR 'b'`, "", []string{"a", "b"}, nil},
		{`('a' OR 'b') AND 'c'`, "", []string{"a", "b", "c"}, []string{"c"}},
		{`('a' AND 'b') OR ('a' AND 'c')`, "", []string{"a", "b", "c"}, []string{"a"}},
		{`'a' AND 'a'`, "", []string{"a"}, []string{"a"}},
		{`'a' AND NOT 'b'`, "", []string{"a"}, []string{"a"}},
		{`('a' OR 'c') AND NOT 'b'`, "", []string{"a", "c"}, nil},
		{`'a' AND NOT ('b' AND 'c')`, "", []string{"a"}, []string{"a"}},
		{`'a' AND NOT 'a'`, "", []string{"a"}, []string{"a"}},
		{`('a' AND NOT 'b') OR 'c'`, "", []string{"a", "c"}, nil},
		{`NOT 'a'`, DeclineFreeNot, nil, nil},
		{`NOT NOT 'a'`, "", []string{"a"}, []string{"a"}}, // normalization cancels the pair
		{`'a' OR NOT 'b'`, DeclineFreeNot, nil, nil},
		{`ANY`, DeclineAny, nil, nil},
		{`'a' OR ANY`, DeclineAny, nil, nil},
		{`'a' AND NOT ANY`, DeclineAny, nil, nil},

		// Proximity: HAS atoms count like literals, predicates are filters.
		{`dist('a','b',3)`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`'c' AND dist('a','b',3)`, "", []string{"c", "a", "b"}, []string{"a", "b", "c"}},
		{`'a b c'`, "", []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,3) AND ordered(p1,p2))`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'c' AND samepara(p1,p2) AND distance(p2,p3,4))`, "", []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{`SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'c' AND window3(p1,p2,p3,5) AND ordered(p1,p2))`, "", []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{`dist('a','a',2)`, "", []string{"a"}, []string{"a"}},
		{`dist('a','b',2) AND NOT 'x'`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`dist('a','b',2) OR dist('c','d',2)`, "", []string{"a", "b", "c", "d"}, nil},
		{`dist('a','b',2) OR dist('a','c',2)`, "", []string{"a", "b", "c"}, []string{"a"}},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1,p2,3))`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND NOT distance(p1,p2,3))`, "", []string{"a", "b"}, []string{"a", "b"}},
		{`SOME p (p HAS 'a' OR p HAS 'b')`, "", []string{"a", "b"}, nil},
		{`SOME p (p HAS 'a' AND p HAS 'b')`, "", []string{"a", "b"}, []string{"a", "b"}},
		// A NOT over a bound variable, intersected with the atom binding it.
		{`SOME p1 (p1 HAS 'a' AND NOT SOME p2 (p2 HAS 'b' AND distance(p1,p2,3)))`, "", []string{"a"}, []string{"a"}},
		{`SOME p1 (p1 HAS 'a' AND NOT p1 HAS 'b')`, "", []string{"a"}, []string{"a"}},
		// Inside a NOT nothing is scored: HAS ANY and loose predicates pass.
		{`'a' AND NOT SOME p1 SOME p2 (p1 HAS 'b' AND p2 HAS ANY AND distance(p1,p2,0))`, "", []string{"a"}, []string{"a"}},

		// Shapes that compile to IL_ANY padding under PRA, or cannot be
		// grounded, stay exhaustive.
		{`EVERY p (p HAS 'a')`, DeclineEvery, nil, nil},
		{`'a' AND EVERY p (NOT p HAS 'b')`, DeclineEvery, nil, nil},
		{`'a' AND NOT EVERY p (p HAS 'b')`, DeclineEvery, nil, nil},
		{`dist('a',ANY,3)`, DeclineUnboundPred, nil, nil},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS ANY AND distance(p1,p2,0))`, DeclineHasAny, nil, nil},
		{`SOME p (p HAS ANY)`, DeclineHasAny, nil, nil},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND distance(p1,p2,3) AND p2 HAS 'b')`, DeclineUnboundPred, nil, nil},
		{`SOME p1 SOME p2 ((p1 HAS 'a' OR p2 HAS 'b') AND distance(p1,p2,3))`, DeclineOpenOr, nil, nil},
		{`SOME p1 SOME p2 SOME p3 ((p1 HAS 'a' AND p2 HAS 'b') AND (p2 HAS 'c' AND p3 HAS 'd'))`, DeclinePaddedAnd, nil, nil},
		{`SOME p1 SOME p2 (p1 HAS 'a' AND NOT p2 HAS 'b')`, DeclineFreeNot, nil, nil},
		{`SOME p (NOT p HAS 'a')`, DeclineFreeNot, nil, nil},
		{`dist('a','b',2) OR NOT 'c'`, DeclineFreeNot, nil, nil},
	}
	for _, c := range cases {
		a := Analyze(mustParse(t, c.src))
		if a.Decline != c.why {
			t.Fatalf("%s: declined with %q, want %q", c.src, a.Decline, c.why)
		}
		if a.Decline != "" {
			continue
		}
		if !reflect.DeepEqual(a.Tokens, c.tokens) {
			t.Fatalf("%s: tokens %v, want %v", c.src, a.Tokens, c.tokens)
		}
		var req []string
		for tok := range a.Required {
			req = append(req, tok)
		}
		sort.Strings(req)
		want := append([]string(nil), c.required...)
		sort.Strings(want)
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("%s: required %v, want %v", c.src, req, want)
		}
	}
}

func TestAnalyzeMultiplicity(t *testing.T) {
	a := Analyze(mustParse(t, `('a' AND 'a') OR dist('a','b',2)`))
	if a.Decline != "" {
		t.Fatalf("query should be eligible, declined with %q", a.Decline)
	}
	if a.Count["a"] != 3 || a.Count["b"] != 1 {
		t.Fatalf("counts %v, want a:3 b:1", a.Count)
	}
}

func TestAnalysisMatches(t *testing.T) {
	a := Analyze(mustParse(t, `('a' OR 'b') AND 'c'`))
	if a.Decline != "" {
		t.Fatalf("query should be eligible, declined with %q", a.Decline)
	}
	has := func(toks ...string) func(string) bool {
		set := map[string]bool{}
		for _, tk := range toks {
			set[tk] = true
		}
		return func(tok string) bool { return set[tok] }
	}
	if !a.Matches(has("a", "c")) || !a.Matches(has("b", "c")) || !a.Matches(has("a", "b", "c")) {
		t.Fatal("expected matches failed")
	}
	if a.Matches(has("a", "b")) || a.Matches(has("c")) || a.Matches(has()) {
		t.Fatal("non-matches matched")
	}
}

// TestMatchesNeverSettlesWhatPresenceCannot pins the polarity rule: a
// predicate or a HAS atom that token presence cannot decide admits the
// candidate under an even number of NOTs and under an odd number alike.
func TestMatchesNeverSettlesWhatPresenceCannot(t *testing.T) {
	has := func(toks ...string) func(string) bool {
		set := map[string]bool{}
		for _, tk := range toks {
			set[tk] = true
		}
		return func(tok string) bool { return set[tok] }
	}
	cases := []struct {
		src     string
		present []string
		want    bool
	}{
		// The predicate is unknown: both words present must admit.
		{`dist('a','b',1)`, []string{"a", "b"}, true},
		{`dist('a','b',1)`, []string{"a"}, false},
		// A negated literal is exact.
		{`dist('a','b',1) AND NOT 'x'`, []string{"a", "b", "x"}, false},
		{`dist('a','b',1) AND NOT 'x'`, []string{"a", "b"}, true},
		// Under NOT a proximity block may fail on its predicate, so the
		// presence of its words must not prune...
		{`'c' AND NOT dist('a','b',1)`, []string{"a", "b", "c"}, true},
		// ...and one position never holds two tokens, so neither must this.
		{`'c' AND NOT SOME p (p HAS 'a' AND p HAS 'b')`, []string{"a", "b", "c"}, true},
		// Two NOTs up, the block is necessary again: a missing word prunes.
		{`'c' AND NOT ('d' AND NOT dist('a','b',1))`, []string{"c", "d", "a"}, false},
		{`'c' AND NOT ('d' AND NOT dist('a','b',1))`, []string{"c", "d", "a", "b"}, true},
		{`'c' AND NOT ('d' AND NOT dist('a','b',1))`, []string{"c"}, true},
	}
	for _, c := range cases {
		a := Analyze(mustParse(t, c.src))
		if a.Decline != "" {
			t.Fatalf("%s: declined with %q", c.src, a.Decline)
		}
		if got := a.Matches(has(c.present...)); got != c.want {
			t.Fatalf("%s with %v present: Matches = %v, want %v", c.src, c.present, got, c.want)
		}
	}
}

func TestSharedThresholdMonotone(t *testing.T) {
	s := NewShared()
	if s.Load() != 0 {
		t.Fatalf("zero value threshold %g, want 0", s.Load())
	}
	s.Raise(0.5)
	s.Raise(0.25) // lower: ignored
	if s.Load() != 0.5 {
		t.Fatalf("threshold %g, want 0.5", s.Load())
	}
	s.Raise(0.75)
	if s.Load() != 0.75 {
		t.Fatalf("threshold %g, want 0.75", s.Load())
	}
}
