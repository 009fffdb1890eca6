package report

import (
	"strconv"
	"strings"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/trace"
)

// AddSimTrace bridges a simulated phase trace into c's timeline, beside
// whatever real spans it holds. Each distinct phase label gets its own
// thread row (simulated stages have no worker identity); the simulation
// clock's seconds map directly onto the viewer's microsecond axis.
func AddSimTrace(c *telemetry.ChromeTrace, pid int, tr *trace.Trace) {
	if tr == nil {
		return
	}
	tids := map[string]int{}
	for _, p := range tr.Phases {
		base, _ := splitPhaseLabel(p.Label)
		tid, ok := tids[base]
		if !ok {
			tid = len(tids)
			tids[base] = tid
			c.AddThreadName(pid, tid, base)
		}
		c.Add(telemetry.ChromeEvent{
			Name: p.Label, Cat: "sim", Ph: "X",
			TS:  p.Start.Seconds() * 1e6,
			Dur: p.Duration.Seconds() * 1e6,
			PID: pid, TID: tid,
			Args: map[string]any{
				"ddr_bytes":    float64(p.DDRBytes),
				"mcdram_bytes": float64(p.MCDRAMBytes),
			},
		})
	}
	if tr.Name != "" {
		c.AddProcessName(pid, tr.Name)
	}
}

// splitPhaseLabel splits a simulated phase label like "copy-in[7]" into
// its base label and chunk index (-1 when the label carries none).
func splitPhaseLabel(label string) (base string, chunk int) {
	chunk = -1
	if !strings.HasSuffix(label, "]") {
		return label, chunk
	}
	i := strings.LastIndexByte(label, '[')
	if i < 0 {
		return label, chunk
	}
	n, err := strconv.Atoi(label[i+1 : len(label)-1])
	if err != nil {
		return label, chunk
	}
	return label[:i], n
}

// SimSpans converts a simulated phase trace into telemetry spans on the
// simulation clock (1 simulated second = 1s span time), classifying each
// phase label onto the pipeline stage taxonomy: labels containing
// "copy-in"/"copy-out" become copy stages, "-spin" phases become the
// matching wait stage (an idle copy pool's busy-wait is starvation), and
// everything else is compute. This lets the same occupancy/stall analyzer
// run over simulated and real executions.
func SimSpans(tr *trace.Trace) []telemetry.Span {
	if tr == nil {
		return nil
	}
	out := make([]telemetry.Span, 0, len(tr.Phases))
	seq := map[string]int{}
	for _, p := range tr.Phases {
		base, chunk := splitPhaseLabel(p.Label)
		if chunk < 0 {
			chunk = seq[base]
			seq[base]++
		}
		out = append(out, telemetry.Span{
			Stage: classifyLabel(base),
			Chunk: chunk,
			// Worker encodes the stage row (stable small ints).
			Worker: int(classifyLabel(base)),
			Start:  time.Duration(p.Start.Seconds() * float64(time.Second)),
			Dur:    time.Duration(p.Duration.Seconds() * float64(time.Second)),
			Bytes:  int64(p.DDRBytes + p.MCDRAMBytes),
		})
	}
	return out
}

func classifyLabel(base string) exec.Stage {
	spin := strings.Contains(base, "spin")
	switch {
	case strings.Contains(base, "copy-in"):
		if spin {
			return exec.StageCopyInWait
		}
		return exec.StageCopyIn
	case strings.Contains(base, "copy-out"):
		if spin {
			return exec.StageCopyOutWait
		}
		return exec.StageCopyOut
	default:
		if spin {
			return exec.StageComputeWait
		}
		return exec.StageCompute
	}
}
