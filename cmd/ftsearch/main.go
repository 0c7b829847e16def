// ftsearch indexes plain-text documents and evaluates full-text queries in
// the BOOL, DIST, or COMP dialects.
//
// Usage:
//
//	ftsearch -dir ./docs "QUERY"                 index *.txt under ./docs, query
//	ftsearch -dir ./docs -save idx.ftx           build and persist an index
//	ftsearch -load idx.ftx "QUERY"               query a persisted index
//
// Flags select the dialect (-lang bool|dist|comp), the engine (-engine
// auto|bool|ppred|npred|comp), ranking (-rank none|tfidf|pra, -top K), and
// -explain prints the query plan instead of searching; with -rank it adds
// the ranked evaluation path (wand, or exhaustive and why).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fulltext"
)

func main() {
	var (
		dir     = flag.String("dir", "", "directory of .txt files to index (one document per file)")
		load    = flag.String("load", "", "load a persisted index instead of building one")
		save    = flag.String("save", "", "persist the built index to this file")
		langF   = flag.String("lang", "comp", "query dialect: bool, dist, or comp")
		engineF = flag.String("engine", "auto", "engine: auto, bool, ppred, npred, or comp")
		rank    = flag.String("rank", "none", "ranking: none, tfidf, or pra")
		top     = flag.Int("top", 10, "maximum ranked results to print")
		explain = flag.Bool("explain", false, "print the query plan instead of results")
		stats   = flag.Bool("stats", false, "print index statistics")
	)
	flag.Parse()

	ix, err := buildOrLoad(*dir, *load)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if _, err := ix.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("index saved to %s\n", *save)
	}
	if *stats {
		s := ix.Stats()
		fmt.Printf("docs=%d tokens=%d positions=%d pos_per_doc=%d entries_per_token=%d pos_per_entry=%d\n",
			s.Docs, s.Tokens, s.TotalPositions, s.PosPerDoc, s.EntriesPerToken, s.PosPerEntry)
	}
	if flag.NArg() == 0 {
		if *save == "" && !*stats {
			fmt.Fprintln(os.Stderr, "usage: ftsearch [-dir DIR | -load FILE] [flags] 'QUERY'")
			flag.PrintDefaults()
			os.Exit(2)
		}
		return
	}

	dialect, err := parseDialect(*langF)
	if err != nil {
		fatal(err)
	}
	q, err := fulltext.Parse(dialect, strings.Join(flag.Args(), " "))
	if err != nil {
		fatal(err)
	}

	if *explain {
		plan, err := ix.Explain(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("class: %s\n%s", ix.Classify(q), plan)
		if *rank != "none" {
			path, err := ix.RankedPath(q)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("ranked path: %s\n", path)
		}
		return
	}

	switch *rank {
	case "none":
		engine, err := parseEngine(*engineF)
		if err != nil {
			fatal(err)
		}
		ms, err := ix.SearchWith(q, engine)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d matches (class %s)\n", len(ms), ix.Classify(q))
		for _, m := range ms {
			fmt.Println(m.ID)
		}
	case "tfidf", "pra":
		model := fulltext.TFIDF
		if *rank == "pra" {
			model = fulltext.PRA
		}
		ms, err := ix.SearchRanked(q, model, *top)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d ranked matches\n", len(ms))
		for _, m := range ms {
			fmt.Printf("%-30s %.6f\n", m.ID, m.Score)
		}
	default:
		fatal(fmt.Errorf("unknown ranking %q", *rank))
	}
}

func buildOrLoad(dir, load string) (*fulltext.Index, error) {
	switch {
	case load != "":
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fulltext.ReadIndex(f)
	case dir != "":
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
				files = append(files, e.Name())
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("no .txt files in %s", dir)
		}
		b := fulltext.NewBuilder()
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			if err := b.Add(strings.TrimSuffix(name, ".txt"), string(data)); err != nil {
				return nil, err
			}
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("one of -dir or -load is required")
	}
}

func parseDialect(s string) (fulltext.Dialect, error) {
	switch strings.ToLower(s) {
	case "bool":
		return fulltext.BOOL, nil
	case "dist":
		return fulltext.DIST, nil
	case "comp":
		return fulltext.COMP, nil
	}
	return 0, fmt.Errorf("unknown dialect %q (want bool, dist, or comp)", s)
}

func parseEngine(s string) (fulltext.Engine, error) {
	switch strings.ToLower(s) {
	case "auto":
		return fulltext.EngineAuto, nil
	case "bool":
		return fulltext.EngineBOOL, nil
	case "ppred":
		return fulltext.EnginePPRED, nil
	case "npred":
		return fulltext.EngineNPRED, nil
	case "comp":
		return fulltext.EngineCOMP, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsearch:", err)
	os.Exit(1)
}
