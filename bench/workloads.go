package main

import (
	"math/rand"

	"knlmlm/internal/wire"
)

// The six workloads. Each stresses a different set of layers; for every
// layer there is one workload that runs it hard and one that bypasses
// it (bench/README.md has the table).

const (
	ki = 1 << 10
	mi = 1 << 20

	// deadlineMS rides a quarter of the mixed workload's jobs.
	deadlineMS = "2000"

	// libElems is the in-process workload's job: 12 MiB in 8 megachunks.
	// A 24 s window completes some 240 of them on two quiet cores, so p90
	// keeps its 100 jobs with half the window disturbed.
	libElems     = 1536 * ki
	libMegachunk = libElems / 8

	// mixedRate is the open loop's arrival rate, jobs per second, and
	// mixedDeck the length of its job mix: at this rate one deck is one
	// 2.4 s round, so every round carries exactly the same mix. The job
	// stream is mixedOrders decks long, the same jobs in another order
	// each time, so a run's percentiles rest on ten arrival orders and
	// not on the one its seed happened to draw.
	mixedRate   = 20
	mixedDeck   = 48
	mixedOrders = 10
	mixedMedium = 64 * ki
	mixedUpper  = 256 * ki
	mixedLarge  = 512 * ki
)

// topology names what a workload boots.
type topology int

const (
	topoLib     topology = iota // nothing: the sort runs in this process
	topoNode                    // one mlmserve
	topoSpill                   // one mlmserve with a 4 MiB DDR budget and a disk tier
	topoCluster                 // mlmcoord over two mlmserve
)

type workload struct {
	name, why string
	shape     string // printed with the results
	topo      topology
	clients   int
	openRate  float64 // jobs per second; 0 means closed loop
	warmJobs  int     // fixed, so set-up time follows the program's speed
	retain    int     // overrides the pinned -retain when larger
	// unrefereed, when set, says why the workload is run and reported but
	// left out of BENCHMARK.json: its numbers cannot referee a change.
	unrefereed string
	expect     expectation
	// inputs draws the job stream from the seed; job i sends inputs[i%len].
	inputs func(rng *rand.Rand) []*input
}

func uniformInputs(n, cells int, keepRaw bool) func(*rand.Rand) []*input {
	return func(rng *rand.Rand) []*input {
		ins := make([]*input, n)
		for i := range ins {
			ins[i] = newInput(rng, wire.KindInt64, orderRandom, cells, false, false, keepRaw)
		}
		return ins
	}
}

// stagedStream is the 1Mi-element job stream node-staged, node-spill
// and cluster-2 share: with identical input, what differs between them
// is the tier, not the data.
var stagedStream = uniformInputs(8, mi, false)

// mixedInputs is the production-like mix. The proportions are exact in
// every deck, whatever the seed: only the contents and the order are
// drawn. Per deck of 48: 12 jobs of 1Ki cells, 4 of 64Ki, 22 of 256Ki
// and 10 of 512Ki.
//
// Neither percentile may sit on the boundary between two classes of job,
// or it flips between their latencies from run to run; and neither may
// sit among jobs of a few milliseconds, because on a shared host those
// cannot be timed (shortJobMS in stats.go: under 50% steal the 1Ki jobs
// read 1 to 3 ms at the median and 4 to 12 ms at the upper quartile, and
// a p50 resting on them spread by 39 and 84% over two sets of ten runs).
// Ranked by latency, 15 jobs of a deck are quick (the small ones and the
// three binary medium ones), the 22 of 256Ki take 15 to 20 ms, and 11 are
// slow: two large record jobs, the 64Ki JSON job, then eight large int64
// and float64 jobs of 30 to 40 ms. So p50, rank 24, is the ninth of the
// 22 and p90, rank 44, the fourth of the eight. Both groups are of one
// speed: random order throughout, because a pre-ordered job sorts in a
// fraction of the time, and no records among the 22, because a record
// job of as many cells holds half the keys. What the other jobs cost
// shows in goodput_mbps and cpu_s_per_gb, and in how long these wait.
func mixedInputs(rng *rand.Rand) []*input {
	kinds := []wire.Kind{wire.KindInt64, wire.KindFloat64, wire.KindRecord}
	var deck []*input
	add := func(kind wire.Kind, ord order, cells int, asJSON bool) {
		deck = append(deck, newInput(rng, kind, ord, cells, asJSON, len(deck)%4 == 0, false))
	}
	// 12 small: the key types and the four orders in turn, JSON for every
	// other int64 job.
	for i := 0; i < 12; i++ {
		kind := kinds[i%3]
		add(kind, order(i/3), ki, kind == wire.KindInt64 && i/3%2 == 0)
	}
	// 4 medium: the JSON path at a size where parsing dominates, and each
	// key type pre-ordered, which is where run detection pays.
	add(wire.KindInt64, orderRandom, mixedMedium, true)
	add(wire.KindInt64, orderSorted, mixedMedium, false)
	add(wire.KindFloat64, orderReverse, mixedMedium, false)
	add(wire.KindRecord, orderSorted, mixedMedium, false)
	// 22 upper: int64 and float64 by turns. 10 large: two of records, then
	// the same two by turns.
	for i := 0; i < 22; i++ {
		add(kinds[i%2], orderRandom, mixedUpper, false)
	}
	add(wire.KindRecord, orderRandom, mixedLarge, false)
	add(wire.KindRecord, orderRandom, mixedLarge, false)
	for i := 0; i < 8; i++ {
		add(kinds[i%2], orderRandom, mixedLarge, false)
	}
	stream := make([]*input, 0, mixedOrders*len(deck))
	for o := 0; o < mixedOrders; o++ {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		stream = append(stream, deck...)
	}
	return stream
}

var workloads = []workload{
	{
		name:  "lib-large",
		why:   "in-process MLM-sort of 12 MiB: psort, exec and mlmsort do all the work and the service layers none, so kernel gains show in full and service changes must leave it flat",
		shape: "in-process mlmsort.RunReal(MLM-sort, threads=nproc, megachunk=192Ki) on 1.5Mi random int64 (12 MiB, 8 megachunks); closed loop, 1 caller",
		topo:  topoLib, clients: 1, warmJobs: 4,
		inputs: uniformInputs(4, libElems, true),
	},
	{
		name:  "node-small",
		why:   "1Ki-element jobs on one node: per-job cost in serve, sched and wire framing is nearly all the time and kernels almost none, so it is the bypass for kernel changes and the target for overhead work",
		shape: "one mlmserve; closed loop, 2 clients; binary wire; 1Ki random int64 per job (batch class)",
		topo:  topoNode, clients: 2, warmJobs: 1000,
		// At 2 500 jobs/s the pinned 16 retained jobs are 6 ms of history:
		// a client descheduled for that long between its submit and its
		// download found the result evicted (one 404 in 29 503 jobs).
		retain:     1024,
		unrefereed: "a 0.35 ms job is at the mercy of every hypervisor stall: four ten-run sets on this VM spread p90 by 10, 28, 109 and 121% and goodput by 3, 19, 27 and 38% (bench/README.md)",
		inputs:     uniformInputs(256, ki, false),
	},
	{
		name:  "node-staged",
		why:   "8 MiB staged jobs on one node: the main service path, where body decode, the staged pipeline and the streamed download each hold a comparable share",
		shape: "one mlmserve; closed loop, 2 clients; binary wire; 1Mi random int64 (8 MiB) per job (staged class)",
		topo:  topoNode, clients: 2, warmJobs: 8,
		inputs: stagedStream,
	},
	{
		name:  "node-spill",
		why:   "the node-staged job stream with a 4 MiB DDR budget: every job spills, so the difference from node-staged is the spill tier, run-file writes and merge-on-download reads together",
		shape: "one mlmserve with -ddr-budget-mb 4 and a disk tier; closed loop, 2 clients; the node-staged job stream; every result must carry X-Sort-Spilled",
		topo:  topoSpill, clients: 2, warmJobs: 4,
		expect:     expectation{spilled: true},
		inputs:     stagedStream,
		unrefereed: "the spill directory must sit inside the checkout, on ext4 mounted with discard here, where the file system stalls jobs for up to 0.5 s: between ten runs goodput spread 34% and p90 74% (bench/README.md)",
	},
	{
		name:  "cluster-2",
		why:   "the node-staged job stream through mlmcoord over two nodes: partition, scatter and merge do the coordinating; four processes on two cores measure coordination cost, not scale-out",
		shape: "mlmcoord over two mlmserve; closed loop, 2 clients; the node-staged job stream; real compute; every job must run as at least 2 partitions",
		topo:  topoCluster, clients: 2, warmJobs: 6,
		expect: expectation{minParts: 2},
		inputs: stagedStream,
	},
	{
		name:  "node-mixed-open",
		why:   "open loop at 20 jobs/s mixing sizes, key types, orders, JSON and deadlines: the one arrival schedule, where queueing, admission, typed kernels and run detection show, and a gain taken from another use",
		shape: "one mlmserve; open loop, fixed 20 jobs/s from 2 workers, timed from the due instant; per 48-job deck: 1Ki/64Ki/256Ki/512Ki cells at 12/4/22/10, i64/f64/rec, random/sorted/reverse/few-unique, JSON for some int64 jobs up to 64Ki, X-Deadline-Ms 2000 on a quarter; ten decks in ten orders",
		topo:  topoNode, clients: 2, openRate: mixedRate, warmJobs: mixedDeck,
		inputs: mixedInputs,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
