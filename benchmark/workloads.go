package main

import "time"

// workload is one traffic mix. Every workload runs the same life of a
// durable server - serve reads, take a bulk load, take paced writes, be
// killed, recover - and differs in the read stream and in whether reads
// run beside the writes.
type workload struct {
	Name  string
	Why   string
	Reads func(seed uint64) *stream
	// SearchRate is the paced read rate in requests per second: about a
	// third of the closed-loop throughput measured on the seed commit, two
	// significant figures, never derived at run time. At half the
	// throughput, which the issue asked for, the median of ranked, whose
	// proximity queries take fifty times the median, moves by a quarter
	// from run to run with the queue they leave behind.
	SearchRate float64
	// WriteRate is the paced write rate in requests per second.
	WriteRate float64
	// Mixed runs the paced reads beside the paced writes (one connection
	// each) in place of before them, for as long as both phases together
	// would have taken, and turns on ftserve's auto-checkpoint policy.
	Mixed bool
}

var workloads = []workload{
	{
		Name:       "classes",
		Why:        "unique unranked queries over the paper's four classes: booleval/ppred/npred/compeval do the work, wand and the result cache do none",
		Reads:      classesStream,
		SearchRate: 230,
		WriteRate:  150,
	},
	{
		Name:       "ranked",
		Why:        "unique tfidf/pra top-K queries over the Zipf vocabulary: wand, score and invlist cursors dominate, the forced-engine paths are idle",
		Reads:      rankedStream,
		SearchRate: 200,
		WriteRate:  150,
	},
	{
		Name:       "hot",
		Why:        "64 repeated queries fit the 256-entry result cache: engines are bypassed, ftserve middleware, lang parsing, shard.Cache and JSON encoding remain",
		Reads:      hotStream,
		SearchRate: 2700,
		WriteRate:  150,
	},
	{
		Name:       "write_mix",
		Why:        "reads beside fsync-per-record writes with auto-checkpoints and merges: text, wal, segment and durable dominate, and a checkpoint that stalls readers shows",
		Reads:      mixReadStream,
		SearchRate: 150,
		WriteRate:  40,
		Mixed:      true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Scale of a run. Phase lengths are shares of --seconds; document counts
// are fixed per second of --seconds, so that the index grows identically
// on both sides of a comparison whatever the speed of the program.
const (
	corpusDocs   = 100000 // documents in the snapshot the server starts from
	quickDocs    = 5000   // the same under -quick
	quickSeconds = 3      // --seconds under -quick

	warmShare   = 0.06 // warm-up, discarded, part of setup_s
	closedShare = 0.32 // closed-loop reads
	pacedShare  = 0.25 // paced reads
	writeShare  = 0.15 // paced writes; the bulk load takes the rest
	// mixedShare is the one phase of paced reads beside paced writes that a
	// Mixed workload runs in place of the two above. It is longer than both
	// together: merges and checkpoints stall a tenth of its requests for
	// tens of milliseconds, and the medians settle slowly.
	mixedShare = 0.55

	loadDocsPerSecond = 1500 // bulk-load documents per second of --seconds

	// autoCkptRecords is ftserve's -auto-checkpoint-records under Mixed:
	// at 40 writes a second a checkpoint is due every 2.5 s, so three run
	// inside the paced phase, and two or three more during the bulk load.
	autoCkptRecords = 100

	recoveryReps   = 3  // kills and restarts behind recovery_s
	recoverySample = 40 // acknowledged ids looked up after the last restart
	oracleMax      = 40 // sampled replies the oracle evaluates per read phase, evenly spaced
)

// Validity limits of the load generator.
const (
	// maxLateShare bounds the p99 of generator lateness as a share of the
	// paced interval; minLateLimit is the floor of that bound: a worker that
	// wakes while a complete-engine query has both cores waits 2 to 3 ms
	// for one, whatever the interval.
	maxLateShare = 0.10
	minLateLimit = 5 * time.Millisecond
	// maxBacklogGrowth bounds how far the backlog may grow between the
	// first and the last third of a paced phase, in seconds of schedule.
	maxBacklogGrowth = 0.25
)
