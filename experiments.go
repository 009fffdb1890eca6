package knlmlm

import (
	"fmt"

	"knlmlm/internal/mem"
	"knlmlm/internal/mergebench"
	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/model"
	"knlmlm/internal/report"
	"knlmlm/internal/stats"
	"knlmlm/internal/stream"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// Table1Row is one cell of the paper's Table 1.
type Table1Row struct {
	Elements  int64
	Order     workload.Order
	Algorithm mlmsort.Algorithm
	Summary   stats.Summary // seconds, over Runs repetitions
}

// Table1Runs is the paper's repetition count.
const Table1Runs = 10

// Table1 regenerates the paper's Table 1: mean and standard deviation of
// ten runs for every (size, order, algorithm) cell.
func Table1(seed int64) []Table1Row {
	var rows []Table1Row
	for _, order := range workload.PaperOrders() {
		for _, n := range PaperSizes() {
			cfg := mlmsim.PaperSortConfig(n, order)
			for _, a := range mlmsort.Algorithms() {
				rows = append(rows, Table1Row{
					Elements:  n,
					Order:     order,
					Algorithm: a,
					Summary:   mlmsim.Repeated(a, cfg, Table1Runs, seed),
				})
			}
		}
	}
	return rows
}

// Table1Report renders Table 1 rows in the paper's layout.
func Table1Report(rows []Table1Row) *report.Table {
	t := &report.Table{
		Title:   "Table 1: Raw sorting performance (averages of 10 runs each)",
		Headers: []string{"Elements", "Input Order", "Algorithm", "Mean(s)", "Std. Dev.(s)"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Elements),
			r.Order.String(),
			r.Algorithm.String(),
			fmt.Sprintf("%.2f", r.Summary.Mean),
			fmt.Sprintf("%.4f", r.Summary.StdDev),
		)
	}
	return t
}

// Fig6Row is one bar of Figure 6: a variant's speedup over GNU-flat.
type Fig6Row struct {
	Elements  int64
	Algorithm mlmsort.Algorithm
	Speedup   float64
}

// Fig6 regenerates Figure 6 (a: random, b: reverse) from Table 1 rows.
func Fig6(rows []Table1Row, order workload.Order) []Fig6Row {
	base := map[int64]float64{}
	for _, r := range rows {
		if r.Order == order && r.Algorithm == mlmsort.GNUFlat {
			base[r.Elements] = r.Summary.Mean
		}
	}
	var out []Fig6Row
	for _, r := range rows {
		if r.Order != order {
			continue
		}
		out = append(out, Fig6Row{
			Elements:  r.Elements,
			Algorithm: r.Algorithm,
			Speedup:   stats.Speedup(base[r.Elements], r.Summary.Mean),
		})
	}
	return out
}

// Fig6Report renders one Figure 6 panel.
func Fig6Report(rows []Fig6Row, order workload.Order) *report.Table {
	panel := "a"
	if order == workload.Reverse {
		panel = "b"
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 6%s: speedup over GNU-flat (%v inputs)", panel, order),
		Headers: []string{"Elements", "Algorithm", "Speedup"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Elements), r.Algorithm.String(), report.SpeedupCell(r.Speedup))
	}
	return t
}

// Fig7Point is one point of Figure 7: time vs chunk size at 6 G elements.
type Fig7Point struct {
	Algorithm     mlmsort.Algorithm
	ChunkElements int64
	Seconds       float64
	// Feasible is false for flat-mode chunk sizes exceeding MCDRAM, which
	// the paper's Figure 7 cannot plot either.
	Feasible bool
}

// Fig7ChunkSizes is the sweep grid: 62.5 M to 6 G elements, doubling, plus
// the paper's 1.5 G point. MCDRAM (16 GiB) holds ~2.1 G elements, so the
// flat-mode series ends at 2 G while MLM-implicit continues improving
// beyond it — the figure's headline observation.
func Fig7ChunkSizes() []int64 {
	return []int64{
		62_500_000, 125_000_000, 250_000_000, 500_000_000,
		1_000_000_000, 1_500_000_000, 2_000_000_000,
		3_000_000_000, 6_000_000_000,
	}
}

// Fig7 regenerates Figure 7 for MLM-sort (flat) and MLM-implicit (cache).
func Fig7() []Fig7Point {
	const n = 6_000_000_000
	capacity := MCDRAMCapacity()
	var out []Fig7Point
	for _, a := range []mlmsort.Algorithm{mlmsort.MLMSort, mlmsort.MLMImplicit} {
		for _, chunk := range Fig7ChunkSizes() {
			p := Fig7Point{Algorithm: a, ChunkElements: chunk, Feasible: true}
			if a == mlmsort.MLMSort && units.BytesForElements(chunk) > capacity {
				p.Feasible = false
				out = append(out, p)
				continue
			}
			cfg := mlmsim.PaperSortConfig(n, workload.Random)
			cfg.MegachunkElements = chunk
			p.Seconds = mlmsim.Simulate(a, cfg).Time.Seconds()
			out = append(out, p)
		}
	}
	return out
}

// Fig7Report renders the Figure 7 series.
func Fig7Report(points []Fig7Point) *report.Table {
	t := &report.Table{
		Title:   "Figure 7: chunked sort time vs chunk size (6 G int64 elements, random)",
		Headers: []string{"Algorithm", "Chunk (elements)", "Time(s)"},
	}
	for _, p := range points {
		cell := "n/a (exceeds MCDRAM)"
		if p.Feasible {
			cell = fmt.Sprintf("%.2f", p.Seconds)
		}
		t.AddRow(p.Algorithm.String(), fmt.Sprintf("%d", p.ChunkElements), cell)
	}
	return t
}

// Table2 regenerates the paper's Table 2 by running the STREAM-style
// calibration against the simulated machine.
func Table2() stream.Calibration {
	m := NewPaperMachine(mem.Flat)
	return stream.Calibrate(m, units.GBps(4.8), units.GBps(6.78))
}

// Table2Report renders Table 2.
func Table2Report(cal stream.Calibration) *report.Table {
	t := &report.Table{
		Title:   "Table 2: model parameters (measured on the simulated machine)",
		Headers: []string{"Parameter", "Value", "Description"},
	}
	t.AddRow("B_copy", "14.9 GB", "Data size (merge benchmark)")
	t.AddRow("DDR_max", fmt.Sprintf("%.0f GB/s", cal.DDRMax.GBpsValue()), "Max DDR bandwidth (STREAM)")
	t.AddRow("MCDRAM_max", fmt.Sprintf("%.0f GB/s", cal.MCDRAMMax.GBpsValue()), "Max MCDRAM bandwidth (STREAM)")
	t.AddRow("S_copy", fmt.Sprintf("%.1f GB/s", cal.SCopy.GBpsValue()), "Per-thread copy rate, unconstrained")
	t.AddRow("S_comp", fmt.Sprintf("%.2f GB/s", cal.SComp.GBpsValue()), "Per-thread compute rate, unconstrained")
	return t
}

// Fig8Repeats and Fig8CopyThreads are the paper's sweep grids.
func Fig8Repeats() []int     { return []int{1, 2, 4, 8, 16, 32, 64} }
func Fig8CopyThreads() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig8aPoint is one model estimate: predicted time at (repeats, copy-in
// threads).
type Fig8aPoint struct {
	Repeats     int
	CopyThreads int
	Seconds     float64
}

// Fig8a regenerates Figure 8a: Section 3.2 model estimates across the
// sweep, at every integer copy-thread count up to 32.
func Fig8a() []Fig8aPoint {
	p := model.PaperTable2()
	var out []Fig8aPoint
	for _, r := range Fig8Repeats() {
		for c := 1; c <= 32; c++ {
			pred := p.Evaluate(model.SymmetricPools(c, 256), float64(r))
			out = append(out, Fig8aPoint{Repeats: r, CopyThreads: c, Seconds: pred.TTotal.Seconds()})
		}
	}
	return out
}

// Fig8bPoint is one simulated merge-benchmark measurement.
type Fig8bPoint struct {
	Repeats     int
	CopyThreads int
	Seconds     float64
}

// Fig8b regenerates Figure 8b: the merge benchmark on the simulated
// machine at the paper's power-of-two copy-thread samples.
func Fig8b() []Fig8bPoint {
	m := NewPaperMachine(mem.Flat)
	res := mergebench.Sweep(m, Fig8Repeats(), Fig8CopyThreads())
	var out []Fig8bPoint
	for i, r := range Fig8Repeats() {
		for j, c := range Fig8CopyThreads() {
			out = append(out, Fig8bPoint{Repeats: r, CopyThreads: c, Seconds: res[i][j].Time.Seconds()})
		}
	}
	return out
}

// Table3Row compares the model's optimal copy-thread count with the
// simulated-empirical optimum.
type Table3Row struct {
	Repeats   int
	Model     int
	Empirical int
}

// Table3 regenerates the paper's Table 3. The model column searches every
// integer copy-thread count (as the paper's model does); the empirical
// column samples powers of two (as the paper's runs did).
func Table3() []Table3Row {
	p := model.PaperTable2()
	m := NewPaperMachine(mem.Flat)
	emp := mergebench.OptimalCopyThreads(m, Fig8Repeats(), Fig8CopyThreads())
	var rows []Table3Row
	for i, r := range Fig8Repeats() {
		rows = append(rows, Table3Row{
			Repeats:   r,
			Model:     p.Optimal(256, 32, float64(r)).Pools.In,
			Empirical: emp[i],
		})
	}
	return rows
}

// Table3Report renders Table 3.
func Table3Report(rows []Table3Row) *report.Table {
	t := &report.Table{
		Title:   "Table 3: optimal number of copy threads, model vs empirical",
		Headers: []string{"Number of Repeats", "Model", "Empirical (Powers of 2)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Repeats), fmt.Sprintf("%d", r.Model), fmt.Sprintf("%d", r.Empirical))
	}
	return t
}

// BenderResult is the Section 4 corroboration of Bender et al.'s
// prediction.
type BenderResult struct {
	GNUFlatSeconds  float64
	GNUCacheSeconds float64
	BasicSeconds    float64
	GainOverFlat    float64 // ~1.3x predicted
	BeatsCacheMode  bool    // the paper found it does NOT
}

// Bender runs the basic chunked algorithm of Bender et al. against the GNU
// baselines at 4 G random elements.
func Bender() BenderResult {
	cfg := mlmsim.PaperSortConfig(4_000_000_000, workload.Random)
	flat := mlmsim.Simulate(mlmsort.GNUFlat, cfg).Time.Seconds()
	cache := mlmsim.Simulate(mlmsort.GNUCache, cfg).Time.Seconds()
	basic := mlmsim.Simulate(mlmsort.BasicChunked, cfg).Time.Seconds()
	return BenderResult{
		GNUFlatSeconds:  flat,
		GNUCacheSeconds: cache,
		BasicSeconds:    basic,
		GainOverFlat:    flat / basic,
		BeatsCacheMode:  basic < cache,
	}
}
