// Command paperrepro regenerates every table and figure of the paper's
// evaluation on the simulated KNL.
//
// Usage:
//
//	paperrepro                  # everything
//	paperrepro -exp table1      # one experiment
//	paperrepro -format markdown # markdown tables (default ascii)
//	paperrepro -csv             # CSV to stdout (for plotting)
//	paperrepro -trace out.json  # side-by-side Chrome trace of all variants
//
// Experiments: table1, fig6a, fig6b, fig7, table2, fig8a, fig8b, table3,
// bender, all.
//
// -trace simulates every Table 1 variant at the given -trace-n size and
// writes one Chrome trace-event JSON with a process lane per variant, so
// the phase schedules can be compared side by side in Perfetto or
// chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"os"

	"knlmlm"
	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/report"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// writeVariantTrace simulates each Table 1 variant and bridges the phase
// traces into one combined timeline.
func writeVariantTrace(path string, n int64, order workload.Order) error {
	var ct telemetry.ChromeTrace
	for pid, alg := range mlmsort.Algorithms() {
		res := mlmsim.Simulate(alg, mlmsim.PaperSortConfig(n, order))
		report.AddSimTrace(&ct, pid+1, res.Trace)
		// Named after AddSimTrace so this label wins over the trace's own.
		ct.AddProcessName(pid+1, fmt.Sprintf("%s  (%.2fs simulated)", alg, res.Time.Seconds()))
	}
	return ct.WriteFile(path)
}

func render(t *report.Table, format string) string {
	switch format {
	case "markdown":
		return t.Markdown()
	case "csv":
		return t.CSV()
	default:
		return t.ASCII()
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, fig6a, fig6b, fig7, table2, fig8a, fig8b, table3, bender, all)")
	format := flag.String("format", "ascii", "output format: ascii, markdown, csv")
	seed := flag.Int64("seed", 1, "noise-model seed for repeated runs")
	tracePath := flag.String("trace", "", "write a side-by-side Chrome trace of every Table 1 variant to this file")
	traceN := flag.Int64("trace-n", 2_000_000_000, "element count for -trace")
	traceOrder := flag.String("trace-order", "random", "input order for -trace")
	flag.Parse()

	if *tracePath != "" {
		order, err := workload.ParseOrder(*traceOrder)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			os.Exit(2)
		}
		if err := writeVariantTrace(*tracePath, *traceN, order); err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote side-by-side Chrome trace of %d variants to %s\n",
			len(mlmsort.Algorithms()), *tracePath)
		if *exp == "all" {
			return // -trace alone doesn't trigger the full regeneration
		}
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	var table1Rows []knlmlm.Table1Row
	needTable1 := run("table1") || run("fig6a") || run("fig6b")
	if needTable1 {
		table1Rows = knlmlm.Table1(*seed)
	}

	if run("table1") {
		fmt.Println(render(knlmlm.Table1Report(table1Rows), *format))
		ran = true
	}
	if run("fig6a") {
		rows := knlmlm.Fig6(table1Rows, workload.Random)
		fmt.Println(render(knlmlm.Fig6Report(rows, workload.Random), *format))
		ran = true
	}
	if run("fig6b") {
		rows := knlmlm.Fig6(table1Rows, workload.Reverse)
		fmt.Println(render(knlmlm.Fig6Report(rows, workload.Reverse), *format))
		ran = true
	}
	if run("fig7") {
		fmt.Println(render(knlmlm.Fig7Report(knlmlm.Fig7()), *format))
		ran = true
	}
	if run("table2") {
		fmt.Println(render(knlmlm.Table2Report(knlmlm.Table2()), *format))
		ran = true
	}
	if run("fig8a") {
		t := &report.Table{
			Title:   "Figure 8a: model-estimated merge benchmark time",
			Headers: []string{"Repeats", "Copy-in Threads", "Model Time(s)"},
		}
		for _, p := range knlmlm.Fig8a() {
			t.AddRow(fmt.Sprintf("%d", p.Repeats), fmt.Sprintf("%d", p.CopyThreads), fmt.Sprintf("%.3f", p.Seconds))
		}
		fmt.Println(render(t, *format))
		ran = true
	}
	if run("fig8b") {
		t := &report.Table{
			Title:   "Figure 8b: simulated merge benchmark time",
			Headers: []string{"Repeats", "Copy-in Threads", "Time(s)"},
		}
		for _, p := range knlmlm.Fig8b() {
			t.AddRow(fmt.Sprintf("%d", p.Repeats), fmt.Sprintf("%d", p.CopyThreads), fmt.Sprintf("%.3f", p.Seconds))
		}
		fmt.Println(render(t, *format))
		ran = true
	}
	if run("table3") {
		fmt.Println(render(knlmlm.Table3Report(knlmlm.Table3()), *format))
		ran = true
	}
	if run("bender") {
		b := knlmlm.Bender()
		t := &report.Table{
			Title:   "Section 4 corroboration: basic chunked sort (Bender et al.) at 4G random",
			Headers: []string{"Variant", "Time(s)"},
		}
		t.AddRow("GNU-flat", fmt.Sprintf("%.2f", b.GNUFlatSeconds))
		t.AddRow("GNU-cache", fmt.Sprintf("%.2f", b.GNUCacheSeconds))
		t.AddRow("Basic-chunked", fmt.Sprintf("%.2f", b.BasicSeconds))
		fmt.Println(render(t, *format))
		fmt.Printf("gain over GNU-flat: %.2fx (Bender et al. predicted ~1.3x); beats cache mode: %v (paper: false)\n\n",
			b.GainOverFlat, b.BeatsCacheMode)
		ran = true
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
