package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knlmlm/internal/units"
)

// randomPipeline builds an arbitrary valid triple-staged pipeline from a
// seed.
func randomPipeline(seed int64) *Pipeline {
	rng := rand.New(rand.NewSource(seed))
	chunkB := units.Bytes(1e8 * (1 + rng.Float64()*20))
	nChunks := 1 + rng.Intn(12)
	p := &Pipeline{
		Total:   chunkB*units.Bytes(nChunks) - units.Bytes(rng.Float64()*float64(chunkB)*0.9),
		Chunk:   chunkB,
		CopyIn:  copySpec("copy-in", 1+rng.Intn(16)),
		Compute: computeSpec(8+rng.Intn(248), 0.25+rng.Float64()*8),
		CopyOut: copySpec("copy-out", 1+rng.Intn(16)),
	}
	if rng.Intn(4) == 0 {
		p.CopyIn = nil
	}
	if rng.Intn(4) == 0 {
		p.CopyOut = nil
	}
	if rng.Intn(3) == 0 {
		p.CopySpinPerThread = units.GBps(rng.Float64())
	}
	return p
}

// Property: the async schedule tracks or beats the barrier schedule within
// a small band, and both move identical payload traffic. Strict dominance
// does NOT hold in general — async front-loads copy stages, and with
// priority classes an early copy can steal bandwidth from the critical
// compute — so the property asserts a band rather than dominance.
//
// The band is the one the simulator keeps, 4%: a sweep of every seed in
// [-20000, 20000) puts 7 pipelines between 1.03 and 1.04 and none above,
// the worst 1.0372 at seed 12478. That seed is pinned below, so a
// scheduler change that widens the gap fails here whatever quick draws,
// and quick draws from a fixed source, so the test is the same 61
// pipelines on every run. (At 3% with time-seeded draws it failed about
// one run in a hundred on an untouched tree.)
func TestAsyncDominatesBarrierProperty(t *testing.T) {
	const band, worstSeed = 1.04, 12478
	f := func(seed int64) bool {
		pb := randomPipeline(seed)
		pa := randomPipeline(seed) // identical construction
		pb.CopySpinPerThread = 0
		pa.CopySpinPerThread = 0
		bar := pb.SimulateBarrier(testSystem())
		asy := pa.SimulateAsync(testSystem(), 3)
		if float64(asy.TotalTime()) > float64(bar.TotalTime())*band {
			return false
		}
		// Stage-flow traffic equality (the trace records only stage flows,
		// not spin).
		return units.AlmostEqual(float64(bar.DDRBytes()), float64(asy.DDRBytes()), 1e-6) &&
			units.AlmostEqual(float64(bar.MCDRAMBytes()), float64(asy.MCDRAMBytes()), 1e-6)
	}
	t.Run("worst-swept-seed", func(t *testing.T) {
		if !f(worstSeed) {
			t.Errorf("seed %d, the widest gap of the sweep (1.0372), left the %.2f band", worstSeed, band)
		}
	})
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: total time is at least the contention-free lower bound of each
// stage (its total payload at its pool's best rate), for both schedulers.
func TestPipelineLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPipeline(seed)
		lower := func(s *StageSpec, workPerByte float64) float64 {
			if s == nil {
				return 0
			}
			agg := float64(s.PerThreadRate) * float64(s.Threads)
			// Device caps bound the rate too; take the loosest bound (no
			// contention): payload rate <= cap/coeff for every device.
			for d, coeff := range s.Demand {
				capRate := float64(testSystem().Device(d).Cap) / coeff
				if capRate < agg {
					agg = capRate
				}
			}
			return float64(p.Total) * workPerByte / agg
		}
		lb := lower(p.CopyIn, 1)
		if x := lower(p.Compute, p.Compute.WorkPerChunkByte); x > lb {
			lb = x
		}
		if x := lower(p.CopyOut, 1); x > lb {
			lb = x
		}
		bar := p.SimulateBarrier(testSystem())
		return float64(bar.TotalTime()) >= lb*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: chunk sizes partition the total exactly.
func TestChunkPartitionProperty(t *testing.T) {
	f := func(totalRaw, chunkRaw uint32) bool {
		total := units.Bytes(totalRaw%1e6 + 1)
		chunkB := units.Bytes(chunkRaw%1e5 + 1)
		p := &Pipeline{Total: total, Chunk: chunkB, Compute: computeSpec(4, 1)}
		var sum units.Bytes
		for i := 0; i < p.NumChunks(); i++ {
			c := p.ChunkBytes(i)
			if c <= 0 || c > chunkB {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// With spin traffic, async stays within a sane band of barrier (it may
// lose by small margins but never dramatically, and usually wins).
func TestAsyncNearBarrierUnderSpin(t *testing.T) {
	f := func(seed int64) bool {
		pb := randomPipeline(seed)
		pa := randomPipeline(seed)
		spin := units.GBps(1.2)
		pb.CopySpinPerThread = spin
		pa.CopySpinPerThread = spin
		if pb.CopyIn == nil && pb.CopyOut == nil {
			return true
		}
		bar := pb.SimulateBarrier(testSystem()).TotalTime()
		asy := pa.SimulateAsync(testSystem(), 3).TotalTime()
		ratio := float64(asy) / float64(bar)
		return ratio > 0.4 && ratio < 1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Spin traffic makes barrier runs slower, never faster.
func TestSpinNeverHelps(t *testing.T) {
	f := func(seed int64) bool {
		base := randomPipeline(seed)
		base.CopySpinPerThread = 0
		spun := randomPipeline(seed)
		spun.CopySpinPerThread = units.GBps(1.5)
		if base.CopyIn == nil && base.CopyOut == nil {
			return true // no pools to spin
		}
		tb := base.SimulateBarrier(testSystem()).TotalTime()
		ts := spun.SimulateBarrier(testSystem()).TotalTime()
		return float64(ts) >= float64(tb)*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
