package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/sched"
	"knlmlm/internal/serve"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

// newNode boots the node tier in process: serve.New over a real
// scheduler, the server the client's bodies have to agree with.
func newNode(t *testing.T) (*sched.Scheduler, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sc, err := sched.New(sched.Config{MCDRAMBudget: 4 << 20, Workers: 2, TotalThreads: 4, Registry: reg})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(sc.Close)
	srv, err := serve.New(serve.Config{Scheduler: sc, Registry: reg})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return sc, hs.URL
}

// TestOneJobAgainstNode runs the client against a live node in every
// encoding it speaks, verified download included, and then against a
// draining scheduler, whose refusal it has to decode.
func TestOneJobAgainstNode(t *testing.T) {
	sc, url := newNode(t)
	client := &http.Client{Timeout: 30 * time.Second}
	once := retryPolicy{baseBackoff: time.Millisecond, maxBackoff: time.Millisecond}
	submit := func(binary bool, kind wire.Kind) (config, prejob) {
		t.Helper()
		keys := genCells(rand.New(rand.NewSource(1)), 4096, kind)
		req, err := newSubmit(url, keys, 0, binary, kind)
		if err != nil {
			t.Fatalf("newSubmit: %v", err)
		}
		return config{url: url, kind: kind}, prejob{n: len(keys), req: req, binary: binary, verify: true}
	}

	for _, c := range []struct {
		name   string
		binary bool
		kind   wire.Kind
	}{
		{"json", false, wire.KindInt64},
		{"binary-i64", true, wire.KindInt64},
		{"binary-rec", true, wire.KindRecord},
	} {
		cfg, pj := submit(c.binary, c.kind)
		ms, _, tries, outcome := oneJob(client, cfg, once, newRetryBudget(0), newBreaker(0, 0), pj, 1)
		if outcome != "ok" || tries != 0 || ms <= 0 {
			t.Errorf("%s: outcome %q after %d retries in %.2fms, want a verified done job first time", c.name, outcome, tries, ms)
		}
	}

	if err := sc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cfg, pj := submit(true, wire.KindInt64)
	resp, raw, err := send(client, pj.req)
	if err != nil {
		t.Fatalf("submit to a draining node: %v", err)
	}
	var eb edge.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("refusal body %q: %v", raw, err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || eb.Code != "overloaded-draining" || eb.RetryAfterMS <= 0 {
		t.Fatalf("draining refusal = HTTP %d %+v, want 429 overloaded-draining with a retry hint", resp.StatusCode, eb)
	}
	if got, want := retryHint(resp, raw), time.Duration(eb.RetryAfterMS)*time.Millisecond; got != want {
		t.Errorf("retryHint = %v, want the body's %v", got, want)
	}
	if _, _, _, outcome := oneJob(client, cfg, once, newRetryBudget(0), newBreaker(0, 0), pj, 1); outcome != "rejected" {
		t.Errorf("outcome against a draining node = %q, want rejected", outcome)
	}
}
