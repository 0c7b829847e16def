package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// rng is splitmix64: the benchmark owns its generator so that neither a
// change to math/rand nor to the repo's synthetic-corpus packages can move
// the workload.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 1..n with probability proportional to 1/rank.
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	cum := make([]float64, n)
	var s float64
	for i := range cum {
		s += 1 / float64(i+1)
		cum[i] = s
	}
	for i := range cum {
		cum[i] /= s
	}
	return &zipf{cum: cum}
}

func (z *zipf) rank(r *rng) int { return z.at(r.float()) }

// at returns the rank at quantile u of the distribution, 0 <= u < 1.
func (z *zipf) at(u float64) int { return sort.SearchFloat64s(z.cum, u) + 1 }

// spreader yields quantiles that cover [0, 1) evenly from the first few
// draws on (the golden-ratio sequence), starting where the seed says. A
// request stream that draws its token frequencies through it costs about
// the same for every seed; a stream that drew them at random would be
// cheap or dear by the luck of a few very frequent tokens.
type spreader struct{ u float64 }

func newSpreader(r *rng) *spreader { return &spreader{u: r.float()} }

func (s *spreader) next() float64 {
	s.u += 0.6180339887498949
	if s.u >= 1 {
		s.u--
	}
	return s.u
}

// Corpus shape. Planted tokens give the query generators postings of an
// exact, seed-independent document frequency; the Zipf background gives
// the ranked workload a realistic skew.
const (
	vocabSize   = 20000 // background vocabulary, Zipf(1) over w1..w20000
	minDocToks  = 12
	maxDocToks  = 28
	sentenceLen = 8  // a '.' after every 8th token
	paraLen     = 16 // a blank line after every 16th token
	perTier     = 48 // planted tokens per df tier
)

// tier is one planted document-frequency class.
type tier struct {
	name string
	perK int // documents per 1000 that carry each token of the tier
}

// tiers are the three planted df classes: 2%, 0.5% and 0.1% of documents.
var tiers = []tier{{"h", 20}, {"m", 5}, {"l", 1}}

// planted returns the i-th token of tier t.
func planted(t, i int) string { return fmt.Sprintf("%s%02dx", tiers[t].name, i) }

type doc struct {
	ID   string
	Body string
}

func docID(i int) string { return fmt.Sprintf("d%07d", i) }

// docNum inverts docID.
func docNum(id string) int {
	n, _ := strconv.Atoi(id[1:]) // ids come from docID
	return n
}

// uniqueToken is the token only document i carries.
func uniqueToken(i int) string { return fmt.Sprintf("u%07d", i) }

// genDocs generates documents [from, from+n) of the stream for seed. The
// planted tokens of documents are decided per block of 1000 consecutive
// ids, so any prefix that is a multiple of 1000 has exact tier df.
func genDocs(seed uint64, from, n int) []doc {
	words := make([]string, vocabSize+1)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	z := newZipf(vocabSize)
	out := make([]doc, 0, n)
	var sb strings.Builder
	toks := make([]string, 0, maxDocToks+8)
	for blk := from / 1000; len(out) < n; blk++ {
		// plant[d] lists the planted tokens of the block's d-th document:
		// each token goes to perK distinct documents of the block.
		r := newRNG(seed ^ uint64(blk+1)*0xA24BAED4963EE407)
		var plant [1000][]string
		for t, tr := range tiers {
			for i := 0; i < perTier; i++ {
				tok := planted(t, i)
				for k := 0; k < tr.perK; {
					d := r.intn(1000)
					if n := len(plant[d]); n == 0 || plant[d][n-1] != tok {
						plant[d] = append(plant[d], tok)
						k++
					}
				}
			}
		}
		for d := 0; d < 1000 && len(out) < n; d++ {
			id := blk*1000 + d
			if id < from {
				// keep the stream position: consume this document's draws
				genBody(r, z, words, plant[d], id, &sb, toks)
				continue
			}
			out = append(out, doc{ID: docID(id), Body: genBody(r, z, words, plant[d], id, &sb, toks)})
		}
	}
	return out
}

func genBody(r *rng, z *zipf, words []string, plant []string, id int, sb *strings.Builder, toks []string) string {
	// Planted tokens and the unique token take slots of their own among the
	// random words, so none overwrites another; a document rarely carries
	// more than three of them.
	n := max(minDocToks+r.intn(maxDocToks-minDocToks+1), 2*(len(plant)+1))
	toks = toks[:0]
	for i := 0; i < n; i++ {
		toks = append(toks, words[z.rank(r)])
	}
	taken := map[int]bool{}
	for _, p := range append(plant, uniqueToken(id)) {
		slot := r.intn(n)
		for taken[slot] {
			slot = r.intn(n)
		}
		taken[slot] = true
		toks[slot] = p
	}
	sb.Reset()
	for i, t := range toks {
		if i > 0 {
			switch {
			case i%paraLen == 0:
				sb.WriteString(".\n\n")
			case i%sentenceLen == 0:
				sb.WriteString(". ")
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteString(t)
	}
	sb.WriteByte('.')
	return sb.String()
}
