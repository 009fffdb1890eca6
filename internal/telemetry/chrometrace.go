package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ChromeEvent is one entry of the Chrome trace-event format: "X"
// (complete), "i" (instant) or "M" (metadata). Timestamps and durations
// are microseconds, as the format requires.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace accumulates trace events from any mix of sources — real
// pipeline spans, a job's lifecycle, simulated phase traces — so that
// runs can be compared side by side in one Perfetto / chrome://tracing
// timeline. Each source should use its own pid; the viewer renders one
// process lane per pid.
type ChromeTrace struct {
	events []ChromeEvent
}

// Add appends one event. It is the only way an event enters the trace;
// the other Add methods and the exporters of other sources build on it.
func (c *ChromeTrace) Add(e ChromeEvent) { c.events = append(c.events, e) }

// AddProcessName labels a pid lane in the viewer.
func (c *ChromeTrace) AddProcessName(pid int, name string) {
	c.Add(ChromeEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

// AddThreadName labels a tid row within a pid lane.
func (c *ChromeTrace) AddThreadName(pid, tid int, name string) {
	c.Add(ChromeEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// AddSpans renders recorder spans under the given pid, one thread row per
// worker. Wait spans are categorised "wait" so the viewer can colour or
// filter them separately from work.
func (c *ChromeTrace) AddSpans(pid int, spans []Span) {
	workers := map[int]bool{}
	for _, s := range spans {
		cat := "work"
		if s.Stage.IsWait() {
			cat = "wait"
		}
		args := map[string]any{"chunk": s.Chunk}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		c.Add(ChromeEvent{
			Name: s.Stage.String(), Cat: cat, Ph: "X",
			TS:  micros(s.Start),
			Dur: micros(s.Dur),
			PID: pid, TID: s.Worker, Args: args,
		})
		workers[s.Worker] = true
	}
	for w := range workers {
		c.AddThreadName(pid, w, fmt.Sprintf("worker %d", w))
	}
}

// Write emits the accumulated events as a Chrome trace-event JSON
// object.
func (c *ChromeTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     c.events,
		"displayTimeUnit": "ms",
	})
}

// WriteFile writes the trace to path.
func (c *ChromeTrace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Len reports the number of accumulated events (metadata included).
func (c *ChromeTrace) Len() int { return len(c.events) }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
