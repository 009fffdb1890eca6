package knlmlm

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation, plus ablations for the design choices DESIGN.md
// calls out. Each benchmark regenerates its experiment's data on the
// simulated KNL and reports the headline quantity as custom metrics, so
// `go test -bench . -benchmem` doubles as the reproduction driver.
//
// Absolute wall time of these benchmarks measures the *simulator*, not the
// paper's hardware; the paper-comparable quantities are the reported
// custom metrics (simulated seconds, speedups, optima).

import (
	"testing"

	"knlmlm/internal/cachesim"
	"knlmlm/internal/mem"
	"knlmlm/internal/mergebench"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/model"
	"knlmlm/internal/noc"
	"knlmlm/internal/twolevel"
	"knlmlm/internal/workload"
)

// BenchmarkTable1SortGrid regenerates every Table 1 cell and reports the
// grand mean of simulated seconds.
func BenchmarkTable1SortGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table1(1)
		var sum float64
		for _, r := range rows {
			sum += r.Summary.Mean
		}
		b.ReportMetric(sum/float64(len(rows)), "simsec/cell")
	}
}

// BenchmarkFig6aSpeedupsRandom reports the geometric-mean speedup over
// GNU-flat on random inputs (Figure 6a).
func BenchmarkFig6aSpeedupsRandom(b *testing.B) {
	benchmarkFig6(b, workload.Random)
}

// BenchmarkFig6bSpeedupsReverse reports the same for reverse inputs
// (Figure 6b).
func BenchmarkFig6bSpeedupsReverse(b *testing.B) {
	benchmarkFig6(b, workload.Reverse)
}

func benchmarkFig6(b *testing.B, order workload.Order) {
	for i := 0; i < b.N; i++ {
		rows := Fig6(Table1(1), order)
		best := 0.0
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		b.ReportMetric(best, "best-speedup")
	}
}

// BenchmarkFig7ChunkSize sweeps chunk sizes at 6 G elements and reports the
// implicit-mode improvement from the smallest to the largest chunk.
func BenchmarkFig7ChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := Fig7()
		var first, last float64
		for _, p := range points {
			if p.Algorithm == mlmsort.MLMImplicit && p.Feasible {
				if first == 0 {
					first = p.Seconds
				}
				last = p.Seconds
			}
		}
		b.ReportMetric(first/last, "implicit-chunk-gain")
	}
}

// BenchmarkTable2Calibration runs the STREAM calibration and reports the
// measured MCDRAM:DDR bandwidth ratio (the paper's 400:90).
func BenchmarkTable2Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := Table2()
		b.ReportMetric(float64(cal.MCDRAMMax)/float64(cal.DDRMax), "mcdram:ddr")
	}
}

// BenchmarkFig8aModelSweep evaluates the analytic model across the Figure
// 8a grid and reports the predicted time at (repeats=1, copy=10) — the
// paper's DDR-saturating optimum.
func BenchmarkFig8aModelSweep(b *testing.B) {
	p := model.PaperTable2()
	for i := 0; i < b.N; i++ {
		pts := Fig8a()
		_ = pts
		pred := p.Evaluate(model.SymmetricPools(10, 256), 1)
		b.ReportMetric(pred.TTotal.Seconds(), "model-simsec")
	}
}

// BenchmarkFig8bEmpiricalSweep runs the simulated merge-benchmark sweep and
// reports the best time at repeats=1.
func BenchmarkFig8bEmpiricalSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Fig8b()
		best := -1.0
		for _, p := range pts {
			if p.Repeats == 1 && (best < 0 || p.Seconds < best) {
				best = p.Seconds
			}
		}
		b.ReportMetric(best, "best-simsec")
	}
}

// BenchmarkTable3OptimalCopyThreads regenerates Table 3 and reports the
// model-vs-empirical agreement (mean absolute difference in copy threads).
func BenchmarkTable3OptimalCopyThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table3()
		var dev float64
		for _, r := range rows {
			d := float64(r.Model - r.Empirical)
			if d < 0 {
				d = -d
			}
			dev += d
		}
		b.ReportMetric(dev/float64(len(rows)), "mean-abs-dev")
	}
}

// BenchmarkBenderCorroboration reruns the Section 4 corroboration and
// reports the basic chunked algorithm's gain over GNU-flat (~1.3x).
func BenchmarkBenderCorroboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Bender()
		b.ReportMetric(r.GainOverFlat, "gain-vs-flat")
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationBarrierVsAsync quantifies what the paper's step-barrier
// schedule costs versus the event-driven pipeline it leaves as future work.
func BenchmarkAblationBarrierVsAsync(b *testing.B) {
	m := NewPaperMachine(mem.Flat)
	cfg := mergebench.PaperConfig(8, 4)
	for i := 0; i < b.N; i++ {
		bar := mergebench.Simulate(m, cfg).Time.Seconds()
		asy := mergebench.SimulateAsync(m, cfg, 3).Time.Seconds()
		b.ReportMetric(bar/asy, "barrier-overhead")
	}
}

// BenchmarkAblationCopyPriority quantifies the Eq. 5 copy-priority
// assumption: the same pipeline with fair (no-priority) copy pools.
func BenchmarkAblationCopyPriority(b *testing.B) {
	m := NewPaperMachine(mem.Flat)
	for i := 0; i < b.N; i++ {
		cfg := mergebench.PaperConfig(8, 4)
		withPri := mergebench.Simulate(m, cfg).Time.Seconds()
		p := cfg.Pipeline(m)
		p.CopyIn.Priority = 0
		p.CopyOut.Priority = 0
		without := p.SimulateBarrier(m.System()).TotalTime().Seconds()
		b.ReportMetric(without/withPri, "fair-vs-priority")
	}
}

// BenchmarkAblationMegachunkSize sweeps MLM-sort megachunk sizes at 4 G
// elements — the Section 4.2 "chunk size should be as large as near memory
// allows" claim — and reports the large:small chunk gain.
func BenchmarkAblationMegachunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := mlmsort.PaperSortConfig(4_000_000_000, workload.Random)
		small.MegachunkElements = 125_000_000
		large := mlmsort.PaperSortConfig(4_000_000_000, workload.Random)
		large.MegachunkElements = 2_000_000_000
		ts := mlmsort.Simulate(mlmsort.MLMSort, small).Time.Seconds()
		tl := mlmsort.Simulate(mlmsort.MLMSort, large).Time.Seconds()
		b.ReportMetric(ts/tl, "large-chunk-gain")
	}
}

// BenchmarkAblationFutureMCDRAM runs the paper's future-technology what-if:
// MLM-sort with 2x MCDRAM bandwidth.
func BenchmarkAblationFutureMCDRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mlmsort.PaperSortConfig(4_000_000_000, workload.Random)
		base := mlmsort.Simulate(mlmsort.MLMSort, cfg).Time.Seconds()

		fast := mlmsort.MLMSort.Machine().Config()
		fast.Memory.MCDRAMBandwidth = 2 * fast.Memory.MCDRAMBandwidth
		m, err := newMachine(fast)
		if err != nil {
			b.Fatal(err)
		}
		faster := mlmsort.SimulateOn(m, mlmsort.MLMSort, cfg).Time.Seconds()
		b.ReportMetric(base/faster, "2x-mcdram-gain")
	}
}

// BenchmarkAblationHybridVsFlat reruns the paper's prose claim that hybrid
// mode matches flat at equal chunk sizes.
func BenchmarkAblationHybridVsFlat(b *testing.B) {
	cfg := mlmsort.PaperSortConfig(4_000_000_000, workload.Random)
	cfg.MegachunkElements = 1_000_000_000
	for i := 0; i < b.N; i++ {
		flat := mlmsort.Simulate(mlmsort.MLMSort, cfg).Time.Seconds()
		hybrid := mlmsort.Simulate(mlmsort.MLMHybrid, cfg).Time.Seconds()
		b.ReportMetric(hybrid/flat, "hybrid:flat")
	}
}

// BenchmarkExtensionPreferredPolicy prices the Li et al. numactl-preferred
// configuration against GNU-flat and MLM-sort.
func BenchmarkExtensionPreferredPolicy(b *testing.B) {
	cfg := mlmsort.PaperSortConfig(4_000_000_000, workload.Random)
	for i := 0; i < b.N; i++ {
		flat := mlmsort.Simulate(mlmsort.GNUFlat, cfg).Time.Seconds()
		pref := mlmsort.Simulate(mlmsort.GNUPreferred, cfg).Time.Seconds()
		b.ReportMetric(flat/pref, "preferred-gain")
	}
}

// BenchmarkExtensionTwoLevelNVM runs the paper's future-work third level:
// doubly-chunked staging from NVM, reported as speedup over direct NVM
// streaming.
func BenchmarkExtensionTwoLevelNVM(b *testing.B) {
	cfg := twolevel.DefaultConfig(256 << 30)
	for i := 0; i < b.N; i++ {
		res, err := cfg.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		base, err := cfg.SingleLevelBaseline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.Seconds()/res.Time.Seconds(), "vs-direct-nvm")
	}
}

// BenchmarkAblationDirectMappedThrash quantifies the direct-mapped
// pathology the paper blames for cache-mode weakness: conflict-stream hit
// ratio of the real KNL geometry vs a hypothetical 4-way MCDRAM cache.
func BenchmarkAblationDirectMappedThrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		direct, assoc := cachesim.ConflictProbe(1<<20, 64, 4, 1<<18)
		b.ReportMetric(assoc-direct, "assoc-advantage")
	}
}

// BenchmarkAblationMeshCeiling verifies the mesh-is-not-the-bottleneck
// assumption behind the paper's model (and our arbiter): headroom factor of
// the on-die mesh's bandwidth ceiling over the 490 GB/s the memory devices
// can serve.
func BenchmarkAblationMeshCeiling(b *testing.B) {
	m := noc.KNLMesh()
	for i := 0; i < b.N; i++ {
		ceiling := m.Ceiling(400.0 / 490.0)
		b.ReportMetric(float64(ceiling)/490e9, "mesh-headroom")
	}
}
