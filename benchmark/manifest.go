package main

import (
	"encoding/json"
	"strings"
)

// e2eMetric is one end-to-end metric of BENCHMARK.json. Bound is the share
// of the parent's median by which the metric may get worse before a change
// counts as a regression; see README, "Bounds", for how each was set.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is every end-to-end metric; every workload reports all of them.
// Tail percentiles are not among them: over ten seed-commit runs of this
// length their spread is between 0.2 and 2.1 of their median (see
// baseline/README.md), and the manifest allows no bound above 0.25. Every
// run prints them, -out records them, and the traced run reports them per
// layer as ftserve.search_p95_ms, ftserve.search_p99_ms and
// ftserve.write_p95_ms.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.05},
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"write_docs_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric   `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

// runSeconds is the measured length of one run under the driver.
const runSeconds = 16

// manifestJSON renders BENCHMARK.json from the program's own tables, so
// that the two cannot disagree.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// better says whether a per-layer metric improves upwards: ratios of
// useful work and throughputs do, times, counts of work and sizes do not.
func better(name string) string {
	for _, up := range []string{"_per_s", "order_ok", "fastpath_ratio", "cache_hit_ratio", "group_commit_size", "results_per_query"} {
		if strings.Contains(name, up) {
			return "higher"
		}
	}
	return "lower"
}
