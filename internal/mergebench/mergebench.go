// Package mergebench implements the paper's Section 5 streaming merge
// benchmark: a chunked, triple-buffered pipeline whose compute stage splits
// each thread's share of the chunk in half and merges the halves, repeated
// `repeats` times. The repeats knob scales compute work while the copy work
// stays fixed, which is what makes the benchmark ideal for studying the
// copy-thread/compute-thread trade-off of Section 3.2.
//
// The package provides both layers:
//
//   - Simulate runs the pipeline on the fluid bandwidth simulator and
//     reports the paper's "empirical" quantity (Figure 8b) — empirical here
//     meaning measured on the simulated machine rather than predicted by
//     the closed-form model;
//   - RunRealResilient executes the same pipeline with goroutines on real
//     data, proving the benchmark's data flow correct. Its buffers come
//     from the shared mem.Pool: the host has no MCDRAM to place them in.
package mergebench

import (
	"fmt"

	"knlmlm/internal/chunk"
	"knlmlm/internal/core"
	"knlmlm/internal/knl"
	"knlmlm/internal/model"
	"knlmlm/internal/trace"
	"knlmlm/internal/units"
)

// Config describes one merge-benchmark run.
type Config struct {
	// DataBytes is the dataset size (the paper's B_copy = 14.9 GB).
	DataBytes units.Bytes
	// ChunkBytes is the staged chunk size. The paper stages the dataset
	// through MCDRAM in buffered chunks; with triple buffering, three
	// chunks are resident at once.
	ChunkBytes units.Bytes
	// Repeats is the number of times the compute merge is performed.
	Repeats int
	// CopyThreads is p_in == p_out.
	CopyThreads int
	// TotalThreads is the overall budget; compute gets
	// TotalThreads - 2*CopyThreads.
	TotalThreads int
	// SCopy and SComp are the per-thread rates (Table 2).
	SCopy units.BytesPerSec
	SComp units.BytesPerSec
	// SpinPerThread is the MCDRAM traffic an idle copy thread keeps
	// issuing while busy-waiting at step barriers (see
	// chunk.Pipeline.CopySpinPerThread). This is what makes oversized copy
	// pools counterproductive in the compute-dominated regime, as the
	// paper's Figure 8b shows empirically.
	SpinPerThread units.BytesPerSec
}

// PaperConfig returns Section 5's setup at the given repeats and copy
// threads: 14.9 GB dataset, 256 threads, Table 2 rates. Triple buffering
// bounds each buffer at MCDRAM/3 ("2/3 of the MCDRAM will be used by the
// copy threads"), but the benchmark uses 1 GiB chunks: ~15 chunks keep the
// pipeline's fill/drain edges negligible, which is the regime the paper's
// Section 3.2 model assumes ("unless the number of chunks is small this
// simplification has a negligible effect"), and matches the paper's
// empirical finding that a single copy thread suffices at 64 repeats —
// something only true when per-chunk copy latency is well under the
// compute time.
func PaperConfig(repeats, copyThreads int) Config {
	return Config{
		DataBytes:    units.Bytes(14.9e9),
		ChunkBytes:   512 * units.MiB, // ~28 chunks: fill/drain edges negligible
		Repeats:      repeats,
		CopyThreads:  copyThreads,
		TotalThreads: 256,
		SCopy:        units.GBps(4.8),
		SComp:        units.GBps(6.78),
		// An idle copy thread's monitor loop polls an MCDRAM-resident flag
		// roughly every hundred cycles, pulling a 64 B line each time:
		// ~1.2 GB/s of background traffic per spinning thread at 1.4 GHz.
		SpinPerThread: units.GBps(1.2),
	}
}

// Validate reports whether the config is runnable.
func (c Config) Validate() error {
	switch {
	case c.DataBytes <= 0:
		return fmt.Errorf("mergebench: data size %v must be positive", c.DataBytes)
	case c.ChunkBytes <= 0:
		return fmt.Errorf("mergebench: chunk size %v must be positive", c.ChunkBytes)
	case c.Repeats < 1:
		return fmt.Errorf("mergebench: repeats %d must be at least 1", c.Repeats)
	case c.CopyThreads < 1:
		return fmt.Errorf("mergebench: copy threads %d must be at least 1", c.CopyThreads)
	case c.TotalThreads-2*c.CopyThreads < 1:
		return fmt.Errorf("mergebench: no compute threads left from %d total with %d copy pairs",
			c.TotalThreads, c.CopyThreads)
	case c.SCopy <= 0 || c.SComp <= 0:
		return fmt.Errorf("mergebench: per-thread rates must be positive")
	}
	return nil
}

// ComputeThreads reports the compute pool size.
func (c Config) ComputeThreads() int { return c.TotalThreads - 2*c.CopyThreads }

// passes reports the compute stage's read+write sweeps per chunk byte:
// each repeat reads and writes every byte once (a two-way merge of the
// thread's halves into scratch and logically back), i.e. WorkPerChunkByte
// = 2*Repeats in the paper's 2*B*Passes accounting.
func (c Config) passes() float64 { return float64(c.Repeats) }

// Pipeline builds the simulated pipeline for machine m. The compute stage
// demands MCDRAM only (flat-mode staging), matching the paper's model
// assumptions; copy stages demand both devices.
func (c Config) Pipeline(m *knl.Machine) *chunk.Pipeline {
	copySpec := func(label string) *chunk.StageSpec {
		return &chunk.StageSpec{
			Label:            label,
			Threads:          c.CopyThreads,
			PerThreadRate:    c.SCopy,
			Demand:           m.Demand(1, 1),
			WorkPerChunkByte: 1,
			Priority:         core.CopyPriority,
		}
	}
	return &chunk.Pipeline{
		Total:             c.DataBytes,
		Chunk:             c.ChunkBytes,
		CopySpinPerThread: c.SpinPerThread,
		CopyIn:            copySpec("copy-in"),
		Compute: &chunk.StageSpec{
			Label:            "merge-compute",
			Threads:          c.ComputeThreads(),
			PerThreadRate:    c.SComp,
			Demand:           m.Demand(0, 1),
			WorkPerChunkByte: 2 * c.passes(),
		},
		CopyOut: copySpec("copy-out"),
	}
}

// Result is one simulated benchmark measurement.
type Result struct {
	Config Config
	Time   units.Time
	Trace  *trace.Trace
}

// Simulate runs the benchmark pipeline on the machine's arbiter with the
// paper's barrier schedule.
func Simulate(m *knl.Machine, c Config) Result {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	tr := c.Pipeline(m).SimulateBarrier(m.System())
	return Result{Config: c, Time: tr.TotalTime(), Trace: tr}
}

// SimulateAsync runs the same pipeline under the event-driven schedule with
// the given buffer count (the future-work variant).
func SimulateAsync(m *knl.Machine, c Config, buffers int) Result {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	tr := c.Pipeline(m).SimulateAsync(m.System(), buffers)
	return Result{Config: c, Time: tr.TotalTime(), Trace: tr}
}

// Sweep simulates the benchmark across the paper's Figure 8b grid: for
// each repeats value, each copy-thread count. It returns results indexed
// [repeatsIdx][copyIdx].
func Sweep(m *knl.Machine, repeats, copyThreads []int) [][]Result {
	out := make([][]Result, len(repeats))
	for i, r := range repeats {
		out[i] = make([]Result, len(copyThreads))
		for j, ct := range copyThreads {
			out[i][j] = Simulate(m, PaperConfig(r, ct))
		}
	}
	return out
}

// OptimalCopyThreads reports the copy-thread count with the lowest
// simulated time among the given candidates for each repeats value —
// the "Empirical" column of the paper's Table 3.
func OptimalCopyThreads(m *knl.Machine, repeats []int, copyThreads []int) []int {
	res := Sweep(m, repeats, copyThreads)
	out := make([]int, len(repeats))
	for i := range repeats {
		best := 0
		for j := range copyThreads {
			if res[i][j].Time < res[i][best].Time {
				best = j
			}
		}
		out[i] = copyThreads[best]
	}
	return out
}

// ModelParams converts the config into Section 3.2 model parameters so the
// model's prediction and the simulation use identical constants.
func (c Config) ModelParams(m *knl.Machine) model.Params {
	cfg := m.Config()
	return model.Params{
		BCopy:     c.DataBytes,
		DDRMax:    cfg.Memory.DDRBandwidth,
		MCDRAMMax: cfg.Memory.MCDRAMBandwidth,
		SCopy:     c.SCopy,
		SComp:     c.SComp,
	}
}
