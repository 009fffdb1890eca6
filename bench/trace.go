package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Client-side spans of the traced pass. They are recorded from the
// benchmark's own files, around the calls into the program; spans
// inside the program are a later change. Spans live in memory and are
// written once, as Chrome trace JSON, when the run ends.

// span is one timed interval. Spans of one job share its id; parent
// names the span that caused this one ("" for a root).
type span struct {
	name, parent string
	job          int64
	lane         int
	start, end   time.Duration // offsets from the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer collects spans per lane (one lane per client goroutine, so
// recording takes no lock). A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	lanes [][]span
}

func newTracer(lanes int) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([][]span, lanes)}
	for i := range t.lanes {
		t.lanes[i] = make([]span, 0, 4096)
	}
	return t
}

func (t *tracer) add(lane int, name, parent string, job int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.lanes[lane] = append(t.lanes[lane], span{
		name: name, parent: parent, job: job, lane: lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, l := range t.lanes {
		out = append(out, l...)
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover. Overlapping children are counted once, and a child reaching
// outside the parent is clipped to it.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, edge time.Duration
	edge = parent.start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.dur() - covered
}

// jobBreakdown is the mean per-job time of each child span of "job" and
// of the job span's self time, in milliseconds, over the traced jobs.
// By construction the parts sum to the mean job span.
type jobBreakdown struct {
	jobs                                  int
	jobMS, submitMS, downloadMS, verifyMS float64
	selfMS                                float64
	maxResidualMS                         float64 // worst |job - children - self| seen; 0 unless spans are malformed
}

func breakdown(spans []span) jobBreakdown {
	byJob := map[int64][]span{}
	for _, s := range spans {
		if s.job != 0 {
			byJob[s.job] = append(byJob[s.job], s)
		}
	}
	var b jobBreakdown
	for _, ss := range byJob {
		var root *span
		var kids []span
		for i := range ss {
			if ss[i].name == "job" {
				root = &ss[i]
			} else if ss[i].parent == "job" {
				kids = append(kids, ss[i])
			}
		}
		if root == nil {
			continue
		}
		b.jobs++
		b.jobMS += ms(root.dur())
		self := selfTime(*root, kids)
		b.selfMS += ms(self)
		var sum time.Duration
		for _, k := range kids {
			sum += k.dur()
			switch k.name {
			case "submit":
				b.submitMS += ms(k.dur())
			case "download":
				b.downloadMS += ms(k.dur())
			case "verify":
				b.verifyMS += ms(k.dur())
			}
		}
		if r := ms(root.dur() - sum - self); r > b.maxResidualMS || -r > b.maxResidualMS {
			b.maxResidualMS = max(r, -r)
		}
	}
	if b.jobs > 0 {
		n := float64(b.jobs)
		b.jobMS, b.submitMS, b.downloadMS, b.verifyMS, b.selfMS =
			b.jobMS/n, b.submitMS/n, b.downloadMS/n, b.verifyMS/n, b.selfMS/n
	}
	return b
}

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto load. One "X" event per span; the job id
// and the parent ride in args.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type args struct {
		Job    int64  `json:"job,omitempty"`
		Parent string `json:"parent,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		cat := "layer"
		if s.job != 0 {
			cat = "job"
		}
		b, err := json.Marshal(event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.lane, Args: args{Job: s.job, Parent: s.parent},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
