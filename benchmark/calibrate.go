package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fulltext"
)

// calibrate prints, per query template, the single-query time in process
// on the default-scale index: the numbers the template tiers and the
// ranked rank window were chosen by (see README, "Calibration").
func calibrate(seed uint64, docs int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	b := &bench{cfg: config{Seed: seed, Docs: docs, Workload: &workloads[0]}, res: &result{Info: map[string]float64{}}}
	dir, err := os.MkdirTemp(filepath.Join(root, "benchmark", "out"), "calibrate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	if err := b.setup(); err != nil {
		return err
	}
	timeOps := func(label string, ops []op) {
		var ms []float64
		results := 0
		for i := range ops {
			q, err := parseOp(&ops[i])
			if err != nil {
				fmt.Printf("%-8s PARSE ERROR %v: %s\n", label, err, ops[i].Query)
				return
			}
			t0 := time.Now()
			var m []fulltext.Match
			if ops[i].Rank == "" {
				m, err = b.oracle.ix.Search(q)
			} else {
				m, err = b.oracle.ix.SearchRanked(q, model(ops[i].Rank), ops[i].Top)
			}
			if err != nil {
				fmt.Printf("%-8s ERROR %v: %s\n", label, err, ops[i].Query)
				return
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			results += len(m)
		}
		sort.Float64s(ms)
		fmt.Printf("%-8s n=%4d median %8.3f ms  p90 %8.3f ms  max %8.3f ms  results/query %7.1f\n",
			label, len(ms), median(ms), ms[len(ms)*9/10], ms[len(ms)-1], float64(results)/float64(len(ms)))
	}
	r := newRNG(seed)
	for _, t := range classTemplates {
		ops := make([]op, 20)
		for i := range ops {
			ops[i] = op{Kind: "search", Dialect: t.Dialect, Query: t.fill(r, i)}
		}
		fmt.Println(t.Text, "  tiers", t.Tiers)
		timeOps(t.Class, ops)
	}
	for _, w := range workloads {
		fmt.Println("workload", w.Name, "(first 400 requests of the stream)")
		byClass := map[string][]op{}
		for _, o := range w.Reads(seed).take(400) {
			k := o.Class
			if o.Rank != "" {
				k = fmt.Sprintf("%s/%s/%d", o.Dialect, o.Rank, o.Top)
			}
			byClass[k] = append(byClass[k], o)
		}
		for _, k := range sortedKeys(byClass) {
			timeOps(k, byClass[k])
		}
	}
	return nil
}
