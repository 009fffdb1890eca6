package mlmsim

import (
	"fmt"
	"math/rand"

	"knlmlm/internal/knl"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/stats"
	"knlmlm/internal/trace"
	"knlmlm/internal/units"
)

// Result is one simulated sort run.
type Result struct {
	Algorithm mlmsort.Algorithm
	Config    Config
	Time      units.Time
	Trace     *trace.Trace
}

// Simulate evaluates the algorithm's phase plan on a fresh paper machine in
// the algorithm's mode and returns the deterministic (noise-free) result.
func Simulate(a mlmsort.Algorithm, c Config) Result {
	m := Machine(a)
	return SimulateOn(m, a, c)
}

// SimulateOn evaluates the plan on a caller-supplied machine (which must be
// in the algorithm's mode). The returned trace is scaled to the same
// calibrated seconds as Time.
func SimulateOn(m *knl.Machine, a mlmsort.Algorithm, c Config) Result {
	tr := Plan(m, a, c).Simulate(m)
	for i := range tr.Phases {
		tr.Phases[i].Start = units.Time(float64(tr.Phases[i].Start) * c.Cal.TimeScale)
		tr.Phases[i].Duration = units.Time(float64(tr.Phases[i].Duration) * c.Cal.TimeScale)
	}
	return Result{
		Algorithm: a,
		Config:    c,
		Time:      tr.TotalTime(), // phases already carry the calibrated scale
		Trace:     tr,
	}
}

// noiseSigma is the run-to-run relative standard deviation per algorithm
// family, matching the structure of the paper's Table 1: the GNU library
// runs show ~1.4-2.5% σ/mean, the MLM variants' serial-sort phases are far
// steadier (~0.1%), and MLM-implicit sits in between because the cache's
// behaviour varies with conflict patterns.
func noiseSigma(a mlmsort.Algorithm) float64 {
	switch a {
	case mlmsort.GNUFlat, mlmsort.GNUCache:
		return 0.016
	case mlmsort.MLMImplicit:
		return 0.012
	case mlmsort.BasicChunked:
		return 0.010
	default: // MLMDDr, MLMSort
		return 0.0012
	}
}

// Repeated simulates `runs` repetitions of the configuration with the
// synthetic run-to-run noise model applied (deterministic in seed) and
// summarises them the way the paper reports Table 1 (mean and sample
// standard deviation). The noise is multiplicative Gaussian; it models the
// OS/library jitter a real machine shows and is the only stochastic element
// of the simulation.
func Repeated(a mlmsort.Algorithm, c Config, runs int, seed int64) stats.Summary {
	if runs < 1 {
		panic(fmt.Sprintf("mlmsim: runs %d must be positive", runs))
	}
	base := Simulate(a, c).Time.Seconds()
	rng := rand.New(rand.NewSource(seed ^ int64(a)<<32 ^ c.Elements))
	sigma := noiseSigma(a)
	xs := make([]float64, runs)
	for i := range xs {
		jitter := 1 + sigma*rng.NormFloat64()
		if jitter < 0.5 {
			jitter = 0.5 // guard against pathological draws
		}
		xs[i] = base * jitter
	}
	return stats.Summarize(xs)
}
