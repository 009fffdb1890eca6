// Package report renders the reproduction's tables and figure series as
// aligned ASCII (for terminals and EXPERIMENTS.md), markdown, and CSV. It
// also reads runs after the fact: the occupancy/stall analysis of recorded
// spans (analysis.go) and the bridge that turns simulated phase traces
// into spans and Chrome-trace lanes (simtrace.go). The command-line
// drivers use it; the daemons link none of it.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple labelled grid. Cells are pre-formatted strings; the
// renderer handles alignment only.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; it must match the header width.
func (t *Table) AddRow(cells ...string) {
	if len(t.Headers) > 0 && len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, header has %d", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

func (t *Table) widths() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	return w
}

// ASCII renders the table with space-aligned columns.
func (t *Table) ASCII() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, x := range w {
			total += x
		}
		b.WriteString(strings.Repeat("-", total+2*(len(w)-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	row := func(cells []string) {
		b.WriteString("| ")
		b.WriteString(strings.Join(cells, " | "))
		b.WriteString(" |\n")
	}
	row(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted per RFC 4180).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Seconds formats a seconds value the way the paper's Table 1 prints times.
func Seconds(v float64) string { return fmt.Sprintf("%.2f", v) }

// Speedup formats a speedup factor.
func SpeedupCell(v float64) string { return fmt.Sprintf("%.2fx", v) }
