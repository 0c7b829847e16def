// Command benchmark measures a durable ftserve end to end over HTTP, and
// layer by layer from outside, on a seeded 100,000-document corpus. See
// README.md for the metric and workload catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: classes, ranked, hot, write_mix or all")
		seed    = flag.Uint64("seed", 1, "seed of the corpus and the request streams")
		seconds = flag.Float64("seconds", runSeconds, "seconds of measured phases per workload")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes benchmark/out/trace-<workload>.jsonl")
		quick   = flag.Bool("quick", false, "5,000 documents and 3 second runs: a smoke test, not a measurement")
		repeat  = flag.Int("repeat", 1, "run every workload this many times, on seeds seed, seed+1, ..., and judge the spread of every end-to-end metric against its bound")
		out     = flag.String("out", "", "also write every run's full result as JSON to this file")
		calib   = flag.Bool("calibrate", false, "print single-query times per template, in process, and exit")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json from the program's tables and exit")
	)
	flag.Parse()
	// Phases run with the collector off (see runPhase); this is the bound
	// on what they may allocate before it steps in regardless.
	debug.SetMemoryLimit(6 << 30)
	var err error
	switch {
	case *mani:
		var b []byte
		if b, err = manifestJSON(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *calib:
		err = calibrate(*seed, corpusDocs)
	default:
		err = run(*name, *seed, *seconds, *trace == 1, *quick, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// record is one run as written to -out: the result with what is needed to
// repeat it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	*result
}

// environment is the first entry of -out: where the runs were made and
// every constant that shapes them.
func environment(root string, cfg config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	searchRate, writeRate := map[string]float64{}, map[string]float64{}
	for _, w := range workloads {
		searchRate[w.Name], writeRate[w.Name] = w.SearchRate, w.WriteRate
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit,
		"seconds": cfg.Seconds, "docs": cfg.Docs, "trace": cfg.Trace, "quick": cfg.Quick,
		"search_rate": searchRate, "write_rate": writeRate, "load_docs_per_second": loadDocsPerSecond,
		"load_batch": loadBatch, "paced_batch": pacedBatch, "delete_every": deleteEvery,
		"auto_checkpoint_records": autoCkptRecords, "sample_every": sampleEvery, "hot_queries": hotQueries,
		"shares":       map[string]float64{"warm": warmShare, "closed": closedShare, "paced": pacedShare, "write": writeShare, "mixed": mixedShare},
		"server_flags": serverFlags("ADDR", "DIR", autoCkptRecords),
	}
}

func run(name string, seed uint64, seconds float64, trace, quick bool, repeat int, out string) error {
	var todo []*workload
	if name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(name); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, "benchmark", "out"), 0o755); err != nil {
		return err
	}
	cfg := config{Seed: seed, Seconds: seconds, Trace: trace, Docs: corpusDocs, Root: root, Bin: bin}
	if quick {
		cfg.Docs, cfg.Seconds, cfg.Quick = quickDocs, quickSeconds, true
	}
	measure := runE2E
	if trace {
		measure = runTrace
	}
	var records []record
	var last *result
	for _, w := range todo {
		cfg.Workload = w
		for i := 0; i < repeat; i++ {
			cfg.Seed = seed + uint64(i)
			res, err := measure(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(w.Name, cfg.Seed, res)
			records = append(records, record{w.Name, cfg.Seed, res})
			last = res
			if len(res.Invalid) > 0 {
				return fmt.Errorf("%s: invalid run: %s", w.Name, strings.Join(res.Invalid, "; "))
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(map[string]any{"environment": environment(root, cfg), "runs": records}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if repeat > 1 && !trace {
		if err := judgeSpread(records); err != nil {
			return err
		}
	}
	// The last line of standard output is the result of the last run in
	// the form the driver of BENCHMARK.json reads.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// judgeSpread prints, per workload and end-to-end metric, the median, the
// quartiles and the interquartile distance as a share of the median over
// the repeated runs, and fails when a spread exceeds the metric's bound.
// The spread of setup_s is shown but not judged: the driver does not judge
// it either.
func judgeSpread(records []record) error {
	var over []string
	fmt.Printf("%-10s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var xs []float64
			for _, r := range records {
				if r.Workload == w.Name {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
			}
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			mark := ""
			if sp > m.Bound && m.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-10s %-18s %12.4f %12.4f %12.4f %8.3f %6.2f%s\n", w.Name, m.Name, median(xs), q1, q3, sp, m.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}

func printResult(name string, seed uint64, r *result) {
	fmt.Printf("workload %s seed %d: correct=%t attempted=%d failed=%d\n", name, seed, r.Correct, r.Attempted, r.Failed)
	for _, m := range sortedKeys(r.Metrics) {
		fmt.Printf("  %-36s %14.4f %s\n", m, r.Metrics[m].Value, r.Metrics[m].Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Printf("  (%s = %g)\n", k, r.Info[k])
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	for _, n := range r.Invalid {
		fmt.Println("  INVALID:", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
