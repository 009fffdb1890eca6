package telemetry

import (
	"context"
	"errors"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
)

// Resilience bundles the failure-path metrics of the real execution
// stack: retries and chunk failures per stage, injected faults per kind,
// and run outcomes (aborts and cancellations). All handles are resolved once at construction, so the
// observation methods are lock-free and safe to call from concurrent
// stage goroutines.
//
// The families are pre-registered with zero values: a clean run still
// exports them, so dashboards can tell "no failures" from "no data".
type Resilience struct {
	reg           *Registry
	retries       [exec.NumStages]*Counter
	failures      [exec.NumStages]*Counter
	aborts        *Counter
	cancellations *Counter
	completions   *Counter
}

// NewResilience registers the failure-semantics metric families in reg
// and returns live handles.
func NewResilience(reg *Registry) *Resilience {
	r := &Resilience{reg: reg}
	for _, st := range []exec.Stage{exec.StageCopyIn, exec.StageCompute, exec.StageCopyOut} {
		lbl := Labels{"stage": st.String()}
		r.retries[st] = reg.Counter("pipeline_retries_total",
			"Failed stage attempts that were retried.", lbl)
		r.failures[st] = reg.Counter("pipeline_chunk_failures_total",
			"Chunk failures that exhausted the retry budget.", lbl)
	}
	r.aborts = reg.Counter("pipeline_aborts_total",
		"Pipeline runs aborted by a chunk failure.", nil)
	r.cancellations = reg.Counter("pipeline_cancellations_total",
		"Pipeline runs stopped by context cancellation.", nil)
	r.completions = reg.Counter("pipeline_completions_total",
		"Pipeline runs that finished cleanly.", nil)
	return r
}

// Registry reports the registry the metrics live in.
func (r *Resilience) Registry() *Registry { return r.reg }

// ObserveRetry is the exec.Stages.OnRetry adapter: it counts the failed
// attempt under the stage's retry or failure series.
func (r *Resilience) ObserveRetry(e exec.RetryEvent) {
	if int(e.Stage) >= len(r.retries) || r.retries[e.Stage] == nil {
		return
	}
	if e.Final {
		r.failures[e.Stage].Add(1)
		return
	}
	r.retries[e.Stage].Add(1)
}

// FinishStages is the one step that readies a stage set to run under a
// caller's plug: the failure policy, with failed attempts counted by r
// when r is non-nil, the observer, and the pool staging buffers come from.
// Every real pipeline (the megachunk phase 1 that the in-memory and
// spilled runs share, and the merge benchmark) passes through here.
// The policy's Wrap rides along and is applied by exec.RunContext.
func FinishStages(s exec.Stages, p exec.Policy, r *Resilience, obs exec.Observer, pool *mem.SlicePool) exec.Stages {
	s.Policy, s.Observer, s.Pool = p, obs, pool
	if r != nil {
		s.OnRetry = r.ObserveRetry
	}
	return s
}

// RecordFault counts one injected fault by kind and stage (used by the
// fault injector so chaos runs expose what they endured).
func (r *Resilience) RecordFault(kind, stage string) {
	r.reg.Counter("faults_injected_total",
		"Faults injected into the pipeline by kind and stage.",
		Labels{"kind": kind, "stage": stage}).Add(1)
}

// RecordOutcome classifies a finished run by its returned error:
// nil -> completion, context cancellation/deadline -> cancellation,
// anything else -> abort. It returns err unchanged so callers can chain
// it into their return path.
func (r *Resilience) RecordOutcome(err error) error {
	switch {
	case err == nil:
		r.completions.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.cancellations.Add(1)
	default:
		r.aborts.Add(1)
	}
	return err
}

// Snapshot of the outcome counters, for tests and harness summaries.
func (r *Resilience) Retries() int64 {
	var n int64
	for _, c := range r.retries {
		if c != nil {
			n += c.Value()
		}
	}
	return n
}

// Failures reports chunk failures across stages.
func (r *Resilience) Failures() int64 {
	var n int64
	for _, c := range r.failures {
		if c != nil {
			n += c.Value()
		}
	}
	return n
}

// Aborts reports aborted runs.
func (r *Resilience) Aborts() int64 { return r.aborts.Value() }

// Cancellations reports cancelled runs.
func (r *Resilience) Cancellations() int64 { return r.cancellations.Value() }

// Completions reports clean runs.
func (r *Resilience) Completions() int64 { return r.completions.Value() }

// FaultsInjected reports the summed injected faults across kinds.
func (r *Resilience) FaultsInjected() int64 {
	return r.sumFamily("faults_injected_total")
}

func (r *Resilience) sumFamily(name string) int64 {
	var n int64
	for _, f := range r.reg.sortedFamilies() {
		if f.name != name {
			continue
		}
		for _, s := range f.sortedSeries() {
			if s.counter != nil {
				n += s.counter.Value()
			}
		}
	}
	return n
}
