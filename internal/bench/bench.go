// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 6, Figures 3 and 5–8) on the synthetic corpus of
// package synth. Each experiment sweeps one parameter and times every
// engine series exactly as the paper plots them:
//
//	BOOL       — merge engine on the predicate-free query
//	PPRED-POS  — pipelined engine, positive predicates
//	NPRED-POS  — permutation driver on the positive query
//	NPRED-NEG  — permutation driver on the negative query
//	COMP-POS   — materializing engine, positive query
//	COMP-NEG   — materializing engine, negative query
package bench

import (
	"fmt"
	"strings"
	"time"

	"fulltext/internal/booleval"
	"fulltext/internal/compeval"
	"fulltext/internal/core"
	"fulltext/internal/invlist"
	"fulltext/internal/ppred"
	"fulltext/internal/pred"
	"fulltext/internal/synth"
)

// Series names, in plot order.
var Series = []string{"BOOL", "PPRED-POS", "NPRED-POS", "NPRED-NEG", "COMP-POS", "COMP-NEG"}

// Setup fixes the corpus parameters an experiment does not sweep. The
// defaults mirror Section 6: 6000 context nodes, 3 query tokens, 2
// predicates, 25 positions per inverted-list entry.
type Setup struct {
	Seed        int64
	CNodes      int
	DocLen      int
	Vocab       int
	NumPlants   int
	PlantFrac   float64
	PosPerEntry int
	ToksQ       int
	PredsQ      int
	DistLimit   int
	Repeats     int // timing repetitions per cell (median-free mean)
}

// Defaults returns the paper's default parameters, scaled by f in (0, 1]
// for quick runs (f = 1 reproduces the Section 6 sizes).
func Defaults(f float64) Setup {
	if f <= 0 || f > 1 {
		f = 1
	}
	s := Setup{
		Seed:        2006,
		CNodes:      int(6000 * f),
		DocLen:      int(400 * f),
		Vocab:       int(20000 * f),
		NumPlants:   5,
		PlantFrac:   0.3,
		PosPerEntry: 25,
		ToksQ:       3,
		PredsQ:      2,
		DistLimit:   20,
		Repeats:     3,
	}
	if s.CNodes < 50 {
		s.CNodes = 50
	}
	if s.DocLen < 60 {
		s.DocLen = 60
	}
	if s.Vocab < 500 {
		s.Vocab = 500
	}
	return s
}

// Build generates the corpus and index for a setup, returning the plant
// token names.
func Build(s Setup) (*core.Corpus, *invlist.Index, []string) {
	plants := synth.PlantTokens(s.NumPlants)
	names := make([]string, len(plants))
	for i := range plants {
		plants[i].DocFraction = s.PlantFrac
		plants[i].PerDoc = s.PosPerEntry
		names[i] = plants[i].Token
	}
	c := synth.Corpus(synth.Config{
		Seed:    s.Seed,
		NumDocs: s.CNodes,
		DocLen:  s.DocLen,

		VocabSize: s.Vocab,
		Plants:    plants,
	})
	return c, invlist.Build(c), names
}

// Cell is one measurement.
type Cell struct {
	Time    time.Duration
	Results int
	Err     string
}

// Table is a formatted experiment result: one row per swept value, one cell
// per series.
type Table struct {
	Title  string
	XLabel string
	Series []string
	XVals  []string
	Cells  map[string]map[string]Cell // xval -> series -> cell
}

func newTable(title, xlabel string, series []string) *Table {
	return &Table{Title: title, XLabel: xlabel, Series: series, Cells: map[string]map[string]Cell{}}
}

func (t *Table) set(x, series string, c Cell) {
	if _, ok := t.Cells[x]; !ok {
		t.XVals = append(t.XVals, x)
		t.Cells[x] = map[string]Cell{}
	}
	t.Cells[x][series] = c
}

// Format renders the table as aligned text, one series per column.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%16s", s)
	}
	b.WriteString("\n")
	for _, x := range t.XVals {
		fmt.Fprintf(&b, "%-14s", x)
		for _, s := range t.Series {
			c, ok := t.Cells[x][s]
			switch {
			case !ok:
				fmt.Fprintf(&b, "%16s", "-")
			case c.Err != "":
				fmt.Fprintf(&b, "%16s", "ERR")
			default:
				fmt.Fprintf(&b, "%13.3fms", float64(c.Time.Microseconds())/1000)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RunSeries times one engine series on a prepared index.
func RunSeries(series string, ix *invlist.Index, reg *pred.Registry, plants []string, s Setup) Cell {
	w := synth.Workload{Tokens: s.ToksQ, Preds: s.PredsQ, DistLimit: s.DistLimit}
	var run func() (int, error)
	switch series {
	case "BOOL":
		q := w.BoolQuery(plants)
		run = func() (int, error) {
			nodes, err := booleval.Eval(q, ix, nil)
			return len(nodes), err
		}
	case "PPRED-POS":
		q := w.PipelinedQuery(plants)
		plan, err := ppred.Compile(q, reg)
		if err != nil {
			return Cell{Err: err.Error()}
		}
		run = func() (int, error) {
			nodes, err := plan.Run(ix, reg, nil)
			return len(nodes), err
		}
	case "NPRED-POS":
		q := w.PipelinedQuery(plants)
		plan, err := ppred.CompileNeg(q, reg)
		if err != nil {
			return Cell{Err: err.Error()}
		}
		run = func() (int, error) {
			nodes, err := plan.RunAll(ix, reg, nil, ppred.OrderOptions{})
			return len(nodes), err
		}
	case "NPRED-NEG":
		wn := w
		wn.Negative = true
		q := wn.PipelinedQuery(plants)
		plan, err := ppred.CompileNeg(q, reg)
		if err != nil {
			return Cell{Err: err.Error()}
		}
		run = func() (int, error) {
			nodes, err := plan.RunAll(ix, reg, nil, ppred.OrderOptions{})
			return len(nodes), err
		}
	case "COMP-POS":
		q := w.PipelinedQuery(plants)
		run = func() (int, error) {
			nodes, err := compeval.Eval(q, ix, reg, compeval.Options{})
			return len(nodes), err
		}
	case "COMP-NEG":
		wn := w
		wn.Negative = true
		q := wn.PipelinedQuery(plants)
		run = func() (int, error) {
			nodes, err := compeval.Eval(q, ix, reg, compeval.Options{})
			return len(nodes), err
		}
	default:
		return Cell{Err: "unknown series " + series}
	}

	reps := s.Repeats
	if reps <= 0 {
		reps = 1
	}
	var total time.Duration
	results := 0
	for r := 0; r < reps; r++ {
		start := time.Now()
		n, err := run()
		if err != nil {
			return Cell{Err: err.Error()}
		}
		total += time.Since(start)
		results = n
	}
	return Cell{Time: total / time.Duration(reps), Results: results}
}

// VaryTokens reproduces Figure 5: query evaluation time vs toks_Q (1–5).
func VaryTokens(s Setup, tokens []int) *Table {
	t := newTable("Figure 5: varying number of query tokens", "toks_Q", Series)
	reg := pred.Default()
	_, ix, plants := Build(s)
	for _, k := range tokens {
		cfg := s
		cfg.ToksQ = k
		if cfg.PredsQ > k {
			cfg.PredsQ = k
		}
		for _, series := range Series {
			t.set(fmt.Sprint(k), series, RunSeries(series, ix, reg, plants, cfg))
		}
	}
	return t
}

// VaryPreds reproduces Figure 6: query evaluation time vs preds_Q (0–4).
func VaryPreds(s Setup, preds []int) *Table {
	t := newTable("Figure 6: varying number of query predicates", "preds_Q", Series)
	reg := pred.Default()
	_, ix, plants := Build(s)
	for _, p := range preds {
		cfg := s
		cfg.PredsQ = p
		for _, series := range Series {
			if p == 0 && series != "BOOL" && series != "PPRED-POS" && series != "COMP-POS" {
				// With no predicates the -NEG series coincide with -POS;
				// the paper reports only BOOL-like behaviour there.
				continue
			}
			t.set(fmt.Sprint(p), series, RunSeries(series, ix, reg, plants, cfg))
		}
	}
	return t
}

// VaryCNodes reproduces Figure 7: query evaluation time vs corpus size.
func VaryCNodes(s Setup, sizes []int) *Table {
	t := newTable("Figure 7: varying number of context nodes", "cnodes", Series)
	reg := pred.Default()
	for _, n := range sizes {
		cfg := s
		cfg.CNodes = n
		_, ix, plants := Build(cfg)
		for _, series := range Series {
			t.set(fmt.Sprint(n), series, RunSeries(series, ix, reg, plants, cfg))
		}
	}
	return t
}

// VaryPosPerEntry reproduces Figure 8: query evaluation time vs positions
// per inverted-list entry.
func VaryPosPerEntry(s Setup, ppe []int) *Table {
	t := newTable("Figure 8: varying positions per inverted-list entry", "pos_per_entry", Series)
	reg := pred.Default()
	for _, p := range ppe {
		cfg := s
		cfg.PosPerEntry = p
		if cfg.DocLen < 3*p {
			cfg.DocLen = 3 * p
		}
		_, ix, plants := Build(cfg)
		for _, series := range Series {
			t.set(fmt.Sprint(p), series, RunSeries(series, ix, reg, plants, cfg))
		}
	}
	return t
}

// Hierarchy reproduces Figure 3 empirically: it scales data size by
// {1, 2, 4} and reports per-engine growth ratios, demonstrating the
// linear-vs-polynomial separation of the complexity hierarchy.
func Hierarchy(s Setup) *Table {
	t := newTable("Figure 3: complexity hierarchy (growth when data doubles twice)", "scale", Series)
	reg := pred.Default()
	for _, f := range []int{1, 2, 4} {
		cfg := s
		cfg.CNodes = s.CNodes * f
		_, ix, plants := Build(cfg)
		for _, series := range Series {
			t.set(fmt.Sprintf("x%d", f), series, RunSeries(series, ix, reg, plants, cfg))
		}
	}
	return t
}

// GrowthRatios summarizes a table produced by Hierarchy or VaryCNodes:
// last-row time divided by first-row time per series.
func GrowthRatios(t *Table) map[string]float64 {
	out := make(map[string]float64, len(t.Series))
	if len(t.XVals) < 2 {
		return out
	}
	first, last := t.XVals[0], t.XVals[len(t.XVals)-1]
	for _, s := range t.Series {
		a, okA := t.Cells[first][s]
		b, okB := t.Cells[last][s]
		if okA && okB && a.Err == "" && b.Err == "" && a.Time > 0 {
			out[s] = float64(b.Time) / float64(a.Time)
		}
	}
	return out
}
