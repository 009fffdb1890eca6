package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const msec = time.Millisecond

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{name: "job", start: 0, end: 100 * msec}
	kids := []span{
		{name: "a", start: 10 * msec, end: 40 * msec},
		{name: "b", start: 30 * msec, end: 60 * msec},   // overlaps a by 10 ms
		{name: "c", start: 35 * msec, end: 45 * msec},   // wholly inside a and b
		{name: "d", start: 90 * msec, end: 120 * msec},  // runs past the parent: clipped
		{name: "e", start: 200 * msec, end: 210 * msec}, // outside: ignored
	}
	// Covered: [10, 60] and [90, 100] = 60 ms, so 40 ms of self time.
	if got := selfTime(parent, kids); got != 40*msec {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != 100*msec {
		t.Errorf("childless self time = %v, want the whole span", got)
	}
	if got := selfTime(parent, []span{{start: -5 * msec, end: 300 * msec}}); got != 0 {
		t.Errorf("fully covered self time = %v, want 0", got)
	}
}

func TestBreakdownPartsSumToJob(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * msec) }
	tr := &tracer{epoch: at(0), lanes: make([][]span, 2)}
	// Two jobs on two lanes. Each has 2 ms before submit and 1 ms between
	// download and verify that no child covers.
	for lane, id := range []int64{7, 8} {
		base := lane * 1000
		tr.add(lane, "submit", "job", id, at(base+2), at(base+12))
		tr.add(lane, "download", "job", id, at(base+12), at(base+32))
		tr.add(lane, "verify", "job", id, at(base+33), at(base+38))
		tr.add(lane, "job", "", id, at(base), at(base+38))
	}
	tr.add(0, "layer:psort", "", 0, at(5000), at(6000)) // not a job span
	b := breakdown(tr.all())
	if b.jobs != 2 {
		t.Fatalf("jobs = %d, want 2", b.jobs)
	}
	if b.jobMS != 38 || b.submitMS != 10 || b.downloadMS != 20 || b.verifyMS != 5 || b.selfMS != 3 {
		t.Errorf("breakdown = %+v, want job 38 = 10 + 20 + 5 + self 3", b)
	}
	if sum := b.submitMS + b.downloadMS + b.verifyMS + b.selfMS; sum != b.jobMS {
		t.Errorf("children %v + self do not sum to the job span %v", sum, b.jobMS)
	}
	if b.maxResidualMS != 0 {
		t.Errorf("residual = %v, want 0", b.maxResidualMS)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.add(0, "job", "", 1, time.Now(), time.Now())
	if tr.all() != nil {
		t.Error("nil tracer returned spans")
	}
}

func TestChromeTraceLoads(t *testing.T) {
	spans := []span{
		{name: "job", job: 3, lane: 1, start: 1 * msec, end: 5 * msec},
		{name: "submit", parent: "job", job: 3, lane: 1, start: 1 * msec, end: 2 * msec},
		{name: "layer:wire", start: 10 * msec, end: 11 * msec},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				Job    int64  `json:"job"`
				Parent string `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "submit" || ev.Ph != "X" || ev.Cat != "job" || ev.Ts != 1000 || ev.Dur != 1000 ||
		ev.Tid != 1 || ev.Args.Job != 3 || ev.Args.Parent != "job" {
		t.Errorf("submit event = %+v", ev)
	}
	if doc.TraceEvents[2].Cat != "layer" {
		t.Errorf("panel span category = %q, want layer", doc.TraceEvents[2].Cat)
	}
}
