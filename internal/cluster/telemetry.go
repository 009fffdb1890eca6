package cluster

import (
	"strconv"

	"knlmlm/internal/telemetry"
)

// metrics is the coordinator's cluster_* family: the observable record
// of how the tier routed, retried, and merged. The per-backend families
// are pre-instantiated per index so the hot paths never touch the
// registry's family lock.
type metrics struct {
	jobs       *telemetry.Counter
	jobsFailed *telemetry.Counter
	partitions *telemetry.Counter
	retries    *telemetry.Counter
	backoffs   *telemetry.Counter
	resamples  *telemetry.Counter
	skew       *telemetry.Histogram
	mergeBytes *telemetry.Counter
	// mergeStall accumulates seconds the merge spent blocked waiting for
	// a backend stream with nothing mergeable — the cluster analog of a
	// pipeline bubble, and the signal that read-ahead width or a backend
	// is the bottleneck.
	mergeStall *telemetry.Gauge

	bytesRouted []*telemetry.Counter
	backendUp   []*telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry, backends int) *metrics {
	m := &metrics{
		jobs: reg.Counter("cluster_jobs_total",
			"Jobs accepted by the cluster coordinator.", nil),
		jobsFailed: reg.Counter("cluster_jobs_failed_total",
			"Coordinator jobs that exhausted partition retries and failed.", nil),
		partitions: reg.Counter("cluster_partitions_total",
			"Range partitions scattered to backends.", nil),
		retries: reg.Counter("cluster_partition_retries_total",
			"Partition re-runs after a backend failure (dial, stream, or remote error).", nil),
		backoffs: reg.Counter("cluster_partition_backoffs_total",
			"Partition submits delayed by backend backpressure (429 or shed).", nil),
		resamples: reg.Counter("cluster_partition_resamples_total",
			"Jobs whose splitter sample was retaken after exceeding the skew limit.", nil),
		skew: reg.Histogram("cluster_partition_skew",
			"Worst partition size over its weighted target per job (1.0 = balanced).",
			nil, []float64{1.05, 1.1, 1.25, 1.5, 2, 2.5, 4, 8}),
		mergeBytes: reg.Counter("cluster_merge_bytes_total",
			"Result bytes streamed through the coordinator merge.", nil),
		mergeStall: reg.Gauge("cluster_merge_stall_seconds_total",
			"Cumulative seconds the result merge spent stalled on backend streams.", nil),
	}
	for i := 0; i < backends; i++ {
		lbl := telemetry.Labels{"backend": strconv.Itoa(i)}
		m.bytesRouted = append(m.bytesRouted, reg.Counter("cluster_backend_bytes_routed_total",
			"Key bytes scattered to each backend.", lbl))
		m.backendUp = append(m.backendUp, reg.Gauge("cluster_backend_up",
			"Whether the backend answered its last capacity poll (1) or not (0).", lbl))
	}
	return m
}
