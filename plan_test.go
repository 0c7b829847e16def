package fulltext

// One plan per query: the engine, and EngineAuto's fallback to the
// complete engine, are decided once from the query; Explain renders the
// plan every segment runs, and segments running one plan concurrently
// share nothing mutable.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fulltext/internal/telemetry"
)

// negChain is a COMP query over n variables chained by negative
// predicates, so its NPRED plan orders all n: n! threads.
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

// planCases is one query per class of the hierarchy plus both of
// EngineAuto's fallbacks, with the engine and fallback reason each plans.
var planCases = []struct{ src, class, engine, fallback string }{
	{`'aa' AND 'bb'`, "BOOL-NONEG", "BOOL", ""},
	{`NOT 'aa' OR 'cc'`, "BOOL", "BOOL", ""},
	{`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND distance(p1,p2,3))`, "PPRED", "PPRED", ""},
	{`SOME p1 SOME p2 (p1 HAS 'aa' AND p2 HAS 'bb' AND not_distance(p1,p2,1))`, "NPRED", "NPRED", ""},
	{`'aa' AND EVERY p (NOT p HAS 'bb')`, "COMP", "COMP", ""},
	{`SOME p ((p HAS 'aa' AND p HAS 'cc') OR p HAS 'bb')`, "PPRED", "COMP",
		"ppred: not pipelined: disjunction branches must be closed or share one variable"},
	{negChain(9), "NPRED", "COMP", "ppred: 362880 ordering threads exceed limit 50000"},
}

// explainLine returns the value of the first "key: " line of an Explain
// rendering, and whether there is one.
func explainLine(plan, key string) (string, bool) {
	for _, l := range strings.Split(plan, "\n") {
		if v, ok := strings.CutPrefix(l, key+": "); ok {
			return v, true
		}
	}
	return "", false
}

// TestExplainNamesEngineSearchUsed: on every layout, Explain's engine and
// fallback lines are the plan's, a traced sharded search notes the same
// engine and fallback on its plan span, and the results equal the forced
// 1..N scan's.
func TestExplainNamesEngineSearchUsed(t *testing.T) {
	names, ixs, _ := candidateLayouts(t, candidateDocs)
	for _, c := range planCases {
		q := MustParse(COMP, c.src)
		for li, ix := range ixs {
			explainer := ix.(interface{ Explain(*Query) (string, error) })
			plan, err := explainer.Explain(q)
			if err != nil {
				t.Fatalf("%s %s: %v", names[li], c.src, err)
			}
			if got, _ := explainLine(plan, "engine"); got != c.engine+" (class "+c.class+")" {
				t.Fatalf("%s %s: engine line %q, want %s (class %s)", names[li], c.src, got, c.engine, c.class)
			}
			if got, _ := explainLine(plan, "fallback"); got != c.fallback {
				t.Fatalf("%s %s: fallback line %q, want %q", names[li], c.src, got, c.fallback)
			}
			var got []Match
			if six, ok := ix.(*ShardedIndex); ok {
				root := telemetry.NewTracer().Start("query")
				if got, err = six.SearchWithTrace(q, EngineAuto, root); err != nil {
					t.Fatalf("%s %s: %v", names[li], c.src, err)
				}
				spans := 0
				root.Walk(func(sp *telemetry.Span) {
					if sp.Name() != "plan" {
						return
					}
					spans++
					notes := sp.Tree().Notes
					if notes["engine"] != c.engine || notes["fallback"] != c.fallback {
						t.Fatalf("%s %s: plan span ran %q (fallback %q); Explain names %q (fallback %q)",
							names[li], c.src, notes["engine"], notes["fallback"], c.engine, c.fallback)
					}
				})
				if spans != 1 {
					t.Fatalf("%s %s: %d plan spans, want 1", names[li], c.src, spans)
				}
			} else if got, err = ix.Search(q); err != nil {
				t.Fatalf("%s %s: %v", names[li], c.src, err)
			}
			want, err := ix.SearchWith(q, EngineCOMP)
			if err != nil {
				t.Fatalf("%s %s: %v", names[li], c.src, err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("%s %s: auto %v, forced scan %v", names[li], c.src, ids(got), ids(want))
			}
		}
	}
}

// TestSharedPlanFanout: one plan per query, run concurrently on every
// segment of a 3-shard base+delta index with tombstones, and concurrent
// Search calls, each return exactly what they return sequentially. Run
// under -race, it shows that running a ppred.Plan or an fta.Expr writes
// nothing into it.
func TestSharedPlanFanout(t *testing.T) {
	sb := NewShardedBuilder(3)
	for _, d := range candidateDocs[:len(candidateDocs)/2] {
		if err := sb.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	six := sb.Build()
	six.SetQueryCacheSize(0)
	holdSegments(six)
	for _, d := range candidateDocs[len(candidateDocs)/2:] {
		if err := six.Add(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"c02", "c12"} {
		if !six.Delete(id) {
			t.Fatalf("delete %s failed", id)
		}
	}
	six.WaitMerges()
	requireLayout(t, six)

	type segRun struct {
		p    *plan
		sg   *seg
		want string
	}
	var runs []segRun
	wantSearch := make([]string, len(planCases))
	for i, c := range planCases {
		q := MustParse(COMP, c.src)
		p, err := newPlan(q, six.analyzer, six.reg, EngineAuto, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, segs := range six.shards {
			for _, sg := range segs {
				nodes, err := sg.ix.run(p, sg.meta.LiveFilter())
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, segRun{p, sg, fmt.Sprint(nodes)})
			}
		}
		ms, err := six.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		wantSearch[i] = fmt.Sprint(ids(ms))
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*(len(runs)+len(planCases)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range runs {
				nodes, err := r.sg.ix.run(r.p, r.sg.meta.LiveFilter())
				if err != nil || fmt.Sprint(nodes) != r.want {
					errs <- fmt.Errorf("engine %s: concurrent run %v (%v), sequential %s", r.p.engine, nodes, err, r.want)
				}
			}
			for i, c := range planCases {
				ms, err := six.Search(MustParse(COMP, c.src))
				if err != nil || fmt.Sprint(ids(ms)) != wantSearch[i] {
					errs <- fmt.Errorf("%s: concurrent search %v (%v), sequential %s", c.src, ids(ms), err, wantSearch[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
