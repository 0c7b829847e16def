package synth

import (
	"testing"

	"fulltext/internal/core"
	"fulltext/internal/ftc"
	"fulltext/internal/invlist"
	"fulltext/internal/lang"
	"fulltext/internal/pred"
)

func TestCorpusShape(t *testing.T) {
	cfg := Config{Seed: 1, NumDocs: 50, DocLen: 100, VocabSize: 500}
	c := Corpus(cfg)
	if c.Len() != 50 {
		t.Fatalf("NumDocs = %d", c.Len())
	}
	for _, d := range c.Docs() {
		if d.Len() < 50 || d.Len() > 150 {
			t.Errorf("doc %s length %d outside DocLen/2..3DocLen/2", d.ID, d.Len())
		}
	}
	// Structure: multiple paragraphs and sentences in a 100-token doc.
	d := c.Doc(1)
	last := d.Positions[len(d.Positions)-1]
	if last.Sent < 2 {
		t.Errorf("expected multiple sentences, got %d", last.Sent)
	}
}

func TestCorpusDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, NumDocs: 10, DocLen: 50, VocabSize: 100,
		Plants: []Plant{{Token: "qq", DocFraction: 0.5, PerDoc: 3}}}
	a := Corpus(cfg)
	b := Corpus(cfg)
	for i := 1; i <= 10; i++ {
		da, db := a.Doc(core.NodeID(i)), b.Doc(core.NodeID(i))
		if len(da.Tokens) != len(db.Tokens) {
			t.Fatalf("doc %d lengths differ", i)
		}
		for j := range da.Tokens {
			if da.Tokens[j] != db.Tokens[j] {
				t.Fatalf("doc %d token %d differs", i, j)
			}
		}
	}
}

func TestPlantedSelectivity(t *testing.T) {
	plants := []Plant{{Token: "needle", DocFraction: 0.4, PerDoc: 7}}
	c := Corpus(Config{Seed: 3, NumDocs: 400, DocLen: 100, VocabSize: 1000, Plants: plants})
	ix := invlist.Build(c)
	df := ix.DF("needle")
	if df < 100 || df > 220 {
		t.Errorf("df(needle) = %d, expected around 160 of 400", df)
	}
	for _, e := range ix.List("needle").Entries {
		if len(e.Pos) != 7 {
			t.Errorf("node %d has %d occurrences, want 7 (pos_per_entry control)", e.Node, len(e.Pos))
		}
	}
}

func TestPlantTokens(t *testing.T) {
	ps := PlantTokens(3)
	if len(ps) != 3 || ps[0].Token != "qtok0" || ps[2].Token != "qtok2" {
		t.Fatalf("PlantTokens = %+v", ps)
	}
}

func TestWorkloadQueries(t *testing.T) {
	reg := pred.Default()
	plants := []string{"qtok0", "qtok1", "qtok2", "qtok3", "qtok4"}

	for toks := 1; toks <= 5; toks++ {
		for preds := 0; preds <= 4; preds++ {
			for _, neg := range []bool{false, true} {
				w := Workload{Tokens: toks, Preds: preds, Negative: neg}
				q := w.PipelinedQuery(plants)
				if err := lang.Validate(q, reg); err != nil {
					t.Fatalf("toks=%d preds=%d neg=%v: invalid query %s: %v", toks, preds, neg, q, err)
				}
				if !lang.Closed(q) {
					t.Fatalf("workload query not closed: %s", q)
				}
				class := lang.Classify(lang.Normalize(q, reg), reg)
				switch {
				case preds == 0 && class > lang.ClassPPred:
					t.Errorf("predicate-free query classified %s", class)
				case !neg && preds > 0 && class != lang.ClassPPred:
					t.Errorf("positive workload classified %s: %s", class, q)
				case neg && preds > 0 && class != lang.ClassNPred:
					t.Errorf("negative workload classified %s: %s", class, q)
				}
			}
			w := Workload{Tokens: toks, Preds: preds}
			b := w.BoolQuery(plants)
			if got := lang.Classify(lang.Normalize(b, reg), reg); got != lang.ClassBoolNoNeg {
				t.Errorf("BoolQuery classified %s", got)
			}
		}
	}
}

func TestWorkloadSemantics(t *testing.T) {
	// Workload queries must be satisfiable on a corpus with planted tokens.
	plants := PlantTokens(3)
	for i := range plants {
		plants[i].DocFraction = 0.8
		plants[i].PerDoc = 10
	}
	c := Corpus(Config{Seed: 5, NumDocs: 30, DocLen: 120, VocabSize: 300, Plants: plants})
	reg := pred.Default()
	w := Workload{Tokens: 3, Preds: 2, DistLimit: 50}
	q := w.PipelinedQuery([]string{"qtok0", "qtok1", "qtok2"})
	nodes, err := ftc.Query(c, reg, lang.ToFTC(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Errorf("positive workload query matched nothing — selectivity too high for experiments")
	}
}
