package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{101, 90, 10, true},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{1000, 99, 10, true},
		{0, 90, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := percentileResolved(c.n, c.p); got != c.ok {
			t.Errorf("percentileResolved(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd: got %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even: got %v, want the middle pair's mean 3", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
	s := summarize("ms", []float64{10, 50, 20, 40, 30})
	if s.Value != 30 || s.Min != 10 || s.Max != 50 || s.Unit != "ms" {
		t.Errorf("summarize = %+v, want median 30 in [10, 50] ms", s)
	}
	// One wild round must not move the reported value.
	if got := summarize("ms", []float64{10, 11, 12, 13, 900}).Value; got != 12 {
		t.Errorf("median with an outlier round = %v, want 12", got)
	}
}

const sec = time.Second

// quiet is n slices in which the hypervisor took nothing.
func quiet(n int) []slice {
	out := make([]slice, n)
	for i := range out {
		out[i] = slice{busy: 40, total: 40, cpu: 0.1}
	}
	markCalm(out, quarter(len(out)))
	return out
}

func TestGoodputWindow(t *testing.T) {
	// Two rounds of 2.4 s (200 ms slices); the window shuts at 4.8 s.
	const tick = 1200 * time.Millisecond
	samples := []sample{
		// Wholly inside round 0.
		{at: tick, from: 0, to: tick, latMS: 1200, bytes: 1.2e6, ok: true},
		// Straddles the boundary at 2.4 s evenly: half to each round.
		{at: 3 * tick, from: tick, to: 3 * tick, latMS: 2400, bytes: 4.8e6, ok: true},
		// Failed: attempted in round 1, no bytes, no latency.
		{at: 3 * tick, from: 2 * tick, to: 3 * tick, latMS: 1200, bytes: 8e6, ok: false},
		// Still running when the window shut: in no round, but the
		// quarter of its time inside the window earns a quarter of its bytes.
		{at: 7 * tick, from: 3 * tick, to: 7 * tick, latMS: 4800, bytes: 9.6e6, ok: true},
	}
	rs := splitRounds(samples, quiet(24), 200*time.Millisecond, false)
	if len(rs) != 2 {
		t.Fatalf("%d rounds, want 2", len(rs))
	}
	if rs[0].Jobs != 1 || rs[1].Jobs != 2 || rs[1].Failed != 1 {
		t.Errorf("attempted/failed = %+v %+v", rs[0], rs[1])
	}
	if len(rs[0].lats) != 1 || len(rs[1].lats) != 1 {
		t.Errorf("a failed or unfinished job gave a latency: %d and %d samples", len(rs[0].lats), len(rs[1].lats))
	}
	// Round 0: 1.2 MB + 2.4 MB over 2.4 s. Round 1: 2.4 MB + 2.4 MB.
	if got := rs[0].GoodputMBps; math.Abs(got-1.5) > 1e-9 {
		t.Errorf("round 0 goodput = %v MB/s, want 1.5", got)
	}
	if got := rs[1].GoodputMBps; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("round 1 goodput = %v MB/s, want 2.0", got)
	}
	if got := rs[0].bytes + rs[1].bytes; math.Abs(got-8.4e6) > 1e-3 {
		t.Errorf("bytes credited to the window = %v, want 8.4e6", got)
	}
	if rs[1].P50MS != 2400 || rs[1].P90MS != 2400 {
		t.Errorf("round 1 percentiles = %v/%v, want 2400", rs[1].P50MS, rs[1].P90MS)
	}
	if rs[0].WallGoodputMBps != rs[0].GoodputMBps || !rs[0].usable || rs[0].CalmSlices != slicesPerRound {
		t.Errorf("with nothing stolen the wall clock and the VM's must agree: %+v", rs[0])
	}
	// CPU cost: 12 slices of 0.1 CPU-s over 3.6 MB.
	if got, want := rs[0].CPUSPerGB, 1.2/3.6e-3; math.Abs(got-want) > 1e-6 {
		t.Errorf("cpu_s_per_gb = %v, want %v", got, want)
	}
}

func TestOpenLoopGoodputIsBytesOverMakespan(t *testing.T) {
	// Two jobs due in the one 2.4 s round, at 0 s and 1.2 s; the second
	// is back at 3 s, past the round's end.
	samples := []sample{
		{at: 0, from: 0, to: sec / 2, latMS: 500, bytes: 2e6, ok: true},
		{at: 1200 * time.Millisecond, from: 1200 * time.Millisecond, to: 3 * sec, latMS: 1800, bytes: 4e6, ok: true},
	}
	rs := splitRounds(samples, quiet(12), 200*time.Millisecond, true)
	if got := rs[0].GoodputMBps; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("goodput = %v MB/s, want 6 MB over 3 s = 2.0", got)
	}
	// Every job of an open-loop round is a latency sample, so that the
	// round's mix stays whole; the rounds are what is picked.
	if rs[0].Jobs != 2 || len(rs[0].lats) != 2 || !rs[0].usable {
		t.Errorf("%d attempted with %d latencies, usable %v; want both jobs sampled", rs[0].Jobs, len(rs[0].lats), rs[0].usable)
	}
}

// An open loop picks whole rounds, the least stolen half of them when
// none is calm, and costs a picked round over all of it.
func TestOpenLoopPicksTheCalmerHalfOfItsRounds(t *testing.T) {
	const sl = 200 * time.Millisecond
	// Four rounds losing 40, 20, 30 and 50% of their CPU time; in each the
	// first slice is the worst, which a closed loop would drop.
	var slices []slice
	for _, pct := range []float64{40, 20, 30, 50} {
		for i := 0; i < slicesPerRound; i++ {
			p := pct
			if i == 0 {
				p += 10
			}
			slices = append(slices, slice{busy: 100 - p, steal: p, total: 100, cpu: 0.1})
		}
	}
	markCalm(slices, quarter(len(slices)))
	var samples []sample
	for r := 0; r < 4; r++ {
		at := time.Duration(r)*slicesPerRound*sl + sl/2
		samples = append(samples, sample{at: at, from: at, to: at + 50*time.Millisecond, latMS: 50, bytes: 1e6, ok: true})
	}
	rs := splitRounds(samples, slices, sl, true)
	for r, want := range []bool{false, true, true, false} {
		if rs[r].usable != want {
			t.Errorf("round %d usable = %v, want %v (the two least stolen of four)", r+1, rs[r].usable, want)
		}
	}
	// 12 slices of 0.1 CPU-s over the round's 1 MB, calm or not.
	if got, want := rs[1].CPUSPerGB, 1.2/1e-3; math.Abs(got-want) > 1e-6 {
		t.Errorf("cpu_s_per_gb = %v, want %v over the whole round", got, want)
	}
}

func TestRoundsIn(t *testing.T) {
	for seconds, want := range map[float64]int{24: 10, 12: 5, 2.4: 1, 3: 1, 0.3: 1} {
		if got := roundsIn(seconds); got != want {
			t.Errorf("roundsIn(%v) = %d, want %d", seconds, got, want)
		}
	}
}

func TestMarkCalm(t *testing.T) {
	mk := func(stealPct ...float64) []slice {
		out := make([]slice, len(stealPct))
		for i, p := range stealPct {
			out[i] = slice{busy: 100 - p, steal: p, total: 100}
		}
		markCalm(out, quarter(len(out)))
		return out
	}
	calm := func(ss []slice) (idx []int) {
		for i, c := range ss {
			if c.calm {
				idx = append(idx, i)
			}
		}
		return idx
	}
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},                     // no steal reported: every slice counts
		{[]float64{1, 50, 2, 3, 4, 60, 5, 6}, []int{0, 2, 3, 4, 6, 7}}, // the bursts dropped
		{[]float64{10, 10.1, 9, 11}, []int{0, 2}},                      // the threshold itself is calm
		{[]float64{30, 50, 20, 40, 45, 35, 25, 60}, []int{2, 6}},       // none calm: the least stolen quarter
		{[]float64{50}, []int{0}},                                      // a single slice is all there is
	} {
		got := calm(mk(c.steal...))
		if len(got) != len(c.want) {
			t.Errorf("markCalm(%v) = %v, want %v", c.steal, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("markCalm(%v) = %v, want %v", c.steal, got, c.want)
				break
			}
		}
	}
}

// Only what happened in calm slices counts, and it counts on the VM's
// clock.
func TestDisturbedSlicesAreLeftOut(t *testing.T) {
	const sl = 200 * time.Millisecond
	// One round: six quiet slices, then six in which the hypervisor took
	// half the CPU time.
	slices := make([]slice, 12)
	for i := range slices {
		slices[i] = slice{busy: 40, total: 40, cpu: 0.1}
		if i >= 6 {
			slices[i] = slice{busy: 20, steal: 20, total: 40, cpu: 0.3}
		}
	}
	markCalm(slices, quarter(len(slices)))
	var samples []sample
	for k := 0; k < 6; k++ { // one 200 ms job in each quiet slice
		end := time.Duration(k+1)*sl - 1
		samples = append(samples, sample{at: end, from: time.Duration(k) * sl, to: end, latMS: 200, bytes: 1e6, ok: true})
	}
	for k := 0; k < 3; k++ { // three 400 ms jobs under the steal
		from := time.Duration(6+2*k) * sl
		samples = append(samples, sample{at: from + 2*sl - 1, from: from, to: from + 2*sl - 1, latMS: 400, bytes: 1e6, ok: true})
	}
	r := splitRounds(samples, slices, sl, false)[0]
	if r.CalmSlices != 6 || !r.usable || r.Jobs != 9 {
		t.Fatalf("round = %+v, want 6 calm slices, usable, 9 attempted", r)
	}
	if len(r.lats) != 6 || r.P50MS != 200 || r.P90MS != 200 {
		t.Errorf("calm latencies %v (p50 %v, p90 %v), want the six 200 ms jobs", r.lats, r.P50MS, r.P90MS)
	}
	if r.WallP50MS != 200 || r.WallP90MS != 400 {
		t.Errorf("wall-clock percentiles %v/%v, want 200/400 over all nine jobs", r.WallP50MS, r.WallP90MS)
	}
	if math.Abs(r.GoodputMBps-5) > 1e-9 { // 6 MB in the 1.2 s that were calm
		t.Errorf("goodput = %v MB/s, want 5", r.GoodputMBps)
	}
	if math.Abs(r.WallGoodputMBps-3.75) > 1e-6 { // 9 MB in 2.4 s
		t.Errorf("wall goodput = %v MB/s, want 3.75", r.WallGoodputMBps)
	}
	if math.Abs(r.CPUSPerGB-0.6/6e-3) > 1e-6 { // the quiet slices' CPU over their bytes
		t.Errorf("cpu_s_per_gb = %v, want %v", r.CPUSPerGB, 0.6/6e-3)
	}
	if math.Abs(r.Stolen-0.25) > 1e-12 || math.Abs(r.Dilation-(480.0/360)) > 1e-12 {
		t.Errorf("whole-round stolen share %v and dilation %v, want 0.25 and 1.333", r.Stolen, r.Dilation)
	}
}

func TestCalmSlicesAreReadOnTheVMClock(t *testing.T) {
	// Every slice lost a tenth of its CPU time: calm, but dilated by 10/9.
	slices := make([]slice, 12)
	for i := range slices {
		slices[i] = slice{busy: 36, steal: 4, total: 40}
	}
	markCalm(slices, quarter(len(slices)))
	samples := []sample{
		{at: 200 * time.Millisecond, from: 0, to: 200 * time.Millisecond, latMS: 200, bytes: 1e6, ok: true},
		// Shorter than a tick of the steal counter: left on the wall clock.
		{at: 205 * time.Millisecond, from: 200 * time.Millisecond, to: 205 * time.Millisecond, latMS: 5, ok: true},
	}
	r := splitRounds(samples, slices, 200*time.Millisecond, false)[0]
	if len(r.lats) != 2 || r.lats[0] != 5 || math.Abs(r.lats[1]-180) > 1e-9 {
		t.Errorf("latencies = %v, want the short job's 5 ms as it was and 200 ms / (10/9) = 180", r.lats)
	}
	if want := 1.0 / (12 * 0.18); math.Abs(r.GoodputMBps-want) > 1e-9 {
		t.Errorf("goodput = %v, want 1 MB over 12 slices of 0.18 s = %v", r.GoodputMBps, want)
	}
	if math.Abs(r.WallGoodputMBps-1/2.4) > 1e-9 {
		t.Errorf("wall goodput = %v, want %v", r.WallGoodputMBps, 1/2.4)
	}
}

func TestBoundComparison(t *testing.T) {
	// Lower is better: 110 against 100 is 10% worse.
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("worseBy lower = %v, want 0.10", got)
	}
	// Higher is better: 90 against 100 is 10% worse, 110 is 10% better.
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("worseBy higher = %v, want 0.10", got)
	}
	if got := worseBy(100, 110, "higher"); got >= 0 {
		t.Errorf("an improvement reads as worse: %v", got)
	}
	if !withinBound(100, 109.9, "lower", 0.10) || withinBound(100, 110.1, "lower", 0.10) {
		t.Error("lower-is-better bound of 10% misplaced")
	}
	if !withinBound(100, 90.1, "higher", 0.10) || withinBound(100, 89.9, "higher", 0.10) {
		t.Error("higher-is-better bound of 10% misplaced")
	}
	// A bound of zero tolerates no rise, and any improvement.
	if withinBound(0.5, 0.5000001, "lower", 0) || !withinBound(0.5, 0.4, "lower", 0) {
		t.Error("zero bound misplaced")
	}
	// agree is symmetric: either run may be the slow one.
	if agree(100, 105, "lower", 0.10) != nil || agree(105, 100, "lower", 0.10) != nil {
		t.Error("runs 5% apart disagree under a 10% bound")
	}
	if agree(100, 120, "lower", 0.10) == nil || agree(120, 100, "lower", 0.10) == nil {
		t.Error("runs 20% apart agree under a 10% bound")
	}
}

func TestDilation(t *testing.T) {
	for _, c := range []struct{ busy, steal, want float64 }{
		{100, 0, 1},   // nothing stolen: the wall clock
		{100, 100, 2}, // as much stolen as run: everything took twice as long
		{300, 100, 4.0 / 3},
		{0, 50, 1}, // no reading: leave the wall clock alone
		{100, -1, 1},
	} {
		if got := dilation(c.busy, c.steal); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("dilation(%v, %v) = %v, want %v", c.busy, c.steal, got, c.want)
		}
	}
}
