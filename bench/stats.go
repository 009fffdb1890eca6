package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The arithmetic every reported number rests on. Kept free of I/O so
// stats_test.go can pin it.

// percentile is the nearest-rank percentile of an ascending-sorted
// sample: the value at 1-based rank ceil(p/100*n). It never
// interpolates, so the result is always a latency that was observed (0
// when none was).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly past the
// nearest-rank position of percentile p.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// minBeyond is the guide's rule: a percentile is reported only with at
// least this many samples beyond it, so p90 needs 100 timed jobs.
const minBeyond = 10

func percentileResolved(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

// median of an unsorted sample; the mean of the middle pair when n is even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// sample is one attempted job. at places it in the timed window: the
// completion instant for a closed loop, the due instant for an open
// loop. [from, to] is the interval it was in the system. All three are
// offsets from the window start.
type sample struct {
	at       time.Duration
	from, to time.Duration
	latMS    float64
	lateMS   float64 // open loop only: actual start minus due instant
	bytes    int64
	ok       bool
}

// credit is the share of the job's bytes earned inside [lo, hi): the
// share of its time in the system that fell there. Crediting a job that
// straddles a round boundary to both rounds, in proportion, keeps a
// round's goodput from jumping by a whole job, which at twenty jobs a
// round would be a 5% step.
func (s sample) credit(lo, hi time.Duration) float64 {
	if s.to <= s.from {
		if s.from >= lo && s.from < hi {
			return float64(s.bytes)
		}
		return 0
	}
	overlap := min(s.to, hi) - max(s.from, lo)
	if overlap <= 0 {
		return 0
	}
	return float64(s.bytes) * float64(overlap) / float64(s.to-s.from)
}

// slice is one reading interval of the timed window: a twelfth of a
// round. The host's counters and the sorting processes' CPU time are read
// at every slice boundary.
type slice struct {
	busy, steal, total float64 // host-wide jiffies over the slice, from /proc/stat
	cpu                float64 // CPU seconds the sorting processes used over it
	calm               bool
}

// stolen is the share of the VM's CPU time over the slice, idle time
// included, that the hypervisor gave to someone else: the steal
// percentage top shows.
func (c slice) stolen() float64 {
	if c.total <= 0 {
		return 0
	}
	return c.steal / c.total
}

func (c slice) dilation() float64 { return dilation(c.busy, c.steal) }

// slicesPerRound cuts a 2.4 s round into 200 ms slices: long enough that
// two CPUs tick 40 jiffies in one, so a 10% steal is 4 of them, and short
// enough that a hypervisor burst (they last 100 to 200 ms here) spoils
// one or two slices, not a round.
const slicesPerRound = 12

// dilation is how much longer than on a host of its own the VM took over
// an interval in which its CPUs ran for busy jiffies and were held back
// by the hypervisor, with work waiting, for steal: (busy+steal)/busy.
// Every time the benchmark reports is wall time divided by it, that is,
// read on a clock that stops while the hypervisor runs another tenant.
// On a host that steals nothing it is 1 and the clock is the wall clock.
// The wall-clock readings are printed beside the reported ones.
//
// Why: on the shared VM this was written on steal reached 50% of a
// round, and wall-clock goodput of lib-large read 49 to 74 MB/s over the
// five rounds of one run; on the VM's clock the same rounds read 122 to
// 130 MB/s.
func dilation(busy, steal float64) float64 {
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return (busy + steal) / busy
}

// calmSteal is the share of a slice's CPU time the hypervisor may take
// before the slice counts as disturbed. The correction by dilation is
// only right on average: under steal caches are colder,
// a stall of a few milliseconds lands whole on the few short jobs it
// hits rather than thinly on all of them, which is exactly what a p90 is
// made of, and work with slack to spare absorbs a stall the formula
// charges for. So only calm slices count.
const calmSteal = 0.10

// shortJobMS is one tick of the steal counter. The dilation says how much
// was stolen on average; a job shorter than a tick was either caught by
// a stall or, far more often, not, and dividing its latency would
// shorten the uncaught majority that p50 reports (at a dilation of 2,
// node-small's p50 read 0.43 ms against 0.70 ms on a quiet host, where
// the wall clock read 0.8). Such a latency stays on the wall clock and
// rests on the calm slices alone.
const shortJobMS = 10

// quarter and half of n, rounded up: the fewest slices of a window, and
// the fewest rounds of an open loop, that a reported value rests on.
func quarter(n int) int { return (n + 3) / 4 }
func half(n int) int    { return (n + 1) / 2 }

// markCalm marks the slices a reported value may rest on: every slice
// that lost at most calmSteal, or the least stolen atLeast of them when
// fewer qualify. Where the kernel reports no steal, every slice is calm.
func markCalm(slices []slice, atLeast int) {
	byCalm := make([]int, len(slices))
	for i := range byCalm {
		byCalm[i] = i
	}
	sort.SliceStable(byCalm, func(a, b int) bool { return slices[byCalm[a]].stolen() < slices[byCalm[b]].stolen() })
	n := 0
	for n < len(byCalm) && slices[byCalm[n]].stolen() <= calmSteal {
		n++
	}
	n = max(n, atLeast)
	for rank, i := range byCalm {
		slices[i].calm = rank < n
	}
}

// roundStats is one round of the timed window, as computed and as
// printed. The reported figures rest on the round's calm slices and are
// on the VM's clock; the wall figures rest on all of it and are on the
// wall clock.
type roundStats struct {
	GoodputMBps float64 `json:"goodput_mbps"` // bytes over the calm slices' time
	P50MS       float64 `json:"job_p50_ms"`   // of lats
	P90MS       float64 `json:"job_p90_ms"`
	CPUSPerGB   float64 `json:"cpu_s_per_gb"` // the sorting processes' CPU seconds in the calm slices per GB credited there
	Jobs        int     `json:"jobs"`         // attempted
	Failed      int     `json:"failed"`
	CalmJobs    int     `json:"calm_jobs"`   // len(lats): jobs placed in calm slices
	CalmSlices  int     `json:"calm_slices"` // of slicesPerRound
	Stolen      float64 `json:"stolen"`      // over the whole round: share of the VM's CPU time the hypervisor took
	Dilation    float64 `json:"dilation"`    // over the whole round: wall time per unit of the VM's own running time
	// Used: the reported values rest on this round. Set by the caller
	// from usable: at least a quarter of the round was calm, and a job
	// completed calmly in it.
	Used bool `json:"used"`

	WallGoodputMBps float64 `json:"wall_goodput_mbps"`
	WallP50MS       float64 `json:"wall_job_p50_ms"`
	WallP90MS       float64 `json:"wall_job_p90_ms"`

	bytes  float64   // verified bytes credited to the calm slices
	lats   []float64 // ascending: latencies of the jobs placed in calm slices
	usable bool
}

// goodputMBps is verified bytes per second, in MB/s (1e6).
func goodputMBps(bytes float64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes / 1e6 / seconds
}

// splitRounds summarises each round of the window, which the slices
// cover back to back from offset 0, slicesPerRound to a round.
//
// A job is attempted, and its latency sampled, in the round its at falls
// in; one whose at falls outside the window (a job still in flight when
// a closed loop's window shut) is in no round. Its bytes are credited to
// the slices it was in the system for, in proportion to the time it spent
// in each. A failed job counts as attempted and contributes neither
// bytes nor a latency: it misses every percentile.
//
// An open loop's offered bytes per round are fixed by the schedule, and
// the schedule runs on the wall clock whatever the hypervisor does. There
// a round's goodput is the bytes due in it over their makespan, first
// due instant to last result back, on the wall clock: it tracks the
// offered load while the system keeps up and falls once a backlog
// carries past the round's end.
func splitRounds(samples []sample, slices []slice, sliceLen time.Duration, open bool) []roundStats {
	rounds := len(slices) / slicesPerRound
	roundLen := sliceLen * slicesPerRound
	out := make([]roundStats, rounds)
	wallLats := make([][]float64, rounds)
	wallBytes := make([]float64, rounds)
	dueBytes := make([]float64, rounds)
	first := make([]time.Duration, rounds) // open loop: the round's makespan
	last := make([]time.Duration, rounds)
	for r := range first {
		first[r] = time.Duration(math.MaxInt64)
	}
	for _, s := range samples {
		// Walk the slices the job was in the system for: credit its bytes
		// and average the dilation it saw by the time spent in each.
		var weighted, spent float64
		for c := max(0, int(s.from/sliceLen)); c < len(slices) && time.Duration(c)*sliceLen <= s.to; c++ {
			lo, hi := time.Duration(c)*sliceLen, time.Duration(c+1)*sliceLen
			if s.ok {
				credit := s.credit(lo, hi)
				wallBytes[c/slicesPerRound] += credit
				if slices[c].calm {
					out[c/slicesPerRound].bytes += credit
				}
			}
			in := float64(min(s.to, hi) - max(s.from, lo))
			if in <= 0 && s.to > s.from {
				continue // touches the slice only at its edge
			}
			in = max(in, 1) // an instantaneous job still sits in one slice
			weighted += in * slices[c].dilation()
			spent += in
		}
		if s.at < 0 {
			continue
		}
		r := int(s.at / roundLen)
		if r >= rounds {
			continue
		}
		out[r].Jobs++
		if !s.ok {
			out[r].Failed++
			continue
		}
		wallLats[r] = append(wallLats[r], s.latMS)
		// The job is a latency sample if the slice it is placed in is calm.
		// Asking that every slice it touched be calm would favour short
		// jobs, which touch fewer: in the mixed workload the large jobs
		// thinned out and p90 slid from 30 ms down among the medium ones.
		// A job that outlived the window was only partly observed.
		//
		// The open loop samples every job of the round instead, and picks
		// whole rounds: its mix is exact per round, and a part of a round
		// holds now two large jobs in fifteen, now none, which moves p90
		// by a factor of five.
		calm := open || slices[int(s.at/sliceLen)].calm && s.to <= sliceLen*time.Duration(len(slices))
		if calm && spent > 0 {
			lat := s.latMS
			if lat >= shortJobMS {
				lat /= weighted / spent
			}
			out[r].lats = append(out[r].lats, lat)
		}
		dueBytes[r] += float64(s.bytes)
		first[r], last[r] = min(first[r], s.from), max(last[r], s.to)
	}
	whole := make([]slice, rounds) // each round as one slice, to pick calm rounds from
	for r := range out {
		o := &out[r]
		var cpu, vmSeconds float64
		for _, c := range slices[r*slicesPerRound : (r+1)*slicesPerRound] {
			whole[r].busy, whole[r].steal, whole[r].total = whole[r].busy+c.busy, whole[r].steal+c.steal, whole[r].total+c.total
			if c.calm {
				o.CalmSlices++
				cpu += c.cpu
				vmSeconds += sliceLen.Seconds() / c.dilation()
			}
		}
		o.Stolen, o.Dilation = whole[r].stolen(), whole[r].dilation()
		sort.Float64s(o.lats)
		sort.Float64s(wallLats[r])
		o.P50MS, o.P90MS = percentile(o.lats, 50), percentile(o.lats, 90)
		o.WallP50MS, o.WallP90MS = percentile(wallLats[r], 50), percentile(wallLats[r], 90)
		o.GoodputMBps = goodputMBps(o.bytes, vmSeconds)
		o.WallGoodputMBps = goodputMBps(wallBytes[r], roundLen.Seconds())
		if open {
			o.GoodputMBps = goodputMBps(dueBytes[r], (last[r] - first[r]).Seconds())
			o.WallGoodputMBps = o.GoodputMBps
		}
		costed := o.bytes
		if open {
			// Whole rounds are picked, so the whole round's CPU time counts.
			cpu, costed = 0, wallBytes[r]
			for _, c := range slices[r*slicesPerRound : (r+1)*slicesPerRound] {
				cpu += c.cpu
			}
		}
		if costed > 0 {
			o.CPUSPerGB = cpu / (costed / 1e9)
		}
		o.CalmJobs = len(o.lats)
		o.usable = o.CalmSlices >= slicesPerRound/4 && o.CalmJobs > 0
	}
	if open {
		// Half, where a closed loop makes do with a quarter of its slices:
		// a round holds 48 jobs, and a median over the 144 of three rounds
		// moved by a tenth between runs from the draw alone.
		markCalm(whole, half(rounds))
		for r := range out {
			out[r].usable = whole[r].calm && out[r].CalmJobs > 0
		}
	}
	return out
}

// summary is a metric's value over the rounds: the median, with the
// extremes printed beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func summarize(unit string, perRound []float64) summary {
	lo, hi := minMax(perRound)
	return summary{Value: median(perRound), Unit: unit, Min: lo, Max: hi}
}

// worseBy is how much worse cand is than base, as a share of base, in
// the metric's own direction. Negative means cand is better.
func worseBy(base, cand float64, better string) float64 {
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// withinBound reports whether cand is no worse than base by more than
// bound. A bound of 0 tolerates no rise at all.
func withinBound(base, cand float64, better string, bound float64) bool {
	return worseBy(base, cand, better) <= bound
}

// agree is bench/agree.sh's check: two runs of the same code must sit
// within the bound of each other in both directions.
func agree(a, b float64, better string, bound float64) error {
	if withinBound(a, b, better, bound) && withinBound(b, a, better, bound) {
		return nil
	}
	return fmt.Errorf("%.6g vs %.6g differ by %.1f%%, bound %.0f%%",
		a, b, 100*math.Max(worseBy(a, b, better), worseBy(b, a, better)), 100*bound)
}
