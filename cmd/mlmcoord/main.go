// Command mlmcoord runs the cluster coordinator: the distributed sort
// tier's router (internal/cluster) fronting a fleet of mlmserve
// backends with the same HTTP protocol a single node speaks.
//
// Examples:
//
//	mlmcoord -addr :9090 -backends http://127.0.0.1:8080,http://127.0.0.1:8081
//	mlmcoord -addr 127.0.0.1:0 -backends "$B0,$B1" -parts-per-backend 4 -poll-interval 250ms
//
// Jobs are range-partitioned with sampled splitters sized to each
// backend's polled capacity (Eq. 1-5 model on the node's own EWMA
// rates, degraded by brownout level and queue depth), scattered as
// binary wire uploads, and merged back into the client's download as a
// windowed k-way merge of the backend result streams. A backend that
// dies mid-job costs only the partitions it held; each is re-run on a
// surviving node, resuming mid-stream where the download stopped.
//
// The chosen listen address is printed on one line ("mlmcoord listening
// on ...") so wrappers binding port 0 can discover the port. SIGINT or
// SIGTERM drains: /healthz flips to 503, new submissions are refused,
// in-flight jobs finish, then the listener shuts down.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"knlmlm/internal/cluster"
	"knlmlm/internal/edge"
)

type options struct {
	addr         string
	backends     string
	partsPerNode int
	pollInterval time.Duration
	retain       int
	seed         int64
	drainTimeout time.Duration
	logLevel     string
	logJSON      bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":9090", "listen address (host:port; port 0 picks a free port)")
	flag.StringVar(&o.backends, "backends", "", "comma-separated mlmserve base URLs (required)")
	flag.IntVar(&o.partsPerNode, "parts-per-backend", 0, "range partitions per backend per job (0 = 2)")
	flag.DurationVar(&o.pollInterval, "poll-interval", 0, "backend capacity poll cadence (0 = 500ms)")
	flag.IntVar(&o.retain, "retain", 0, "terminal jobs retained for status lookup (0 = 64)")
	flag.Int64Var(&o.seed, "seed", 1, "splitter sampling seed")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error, or off")
	flag.BoolVar(&o.logJSON, "log-json", false, "emit structured logs as JSON (default logfmt-style text)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mlmcoord:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var backends []string
	for _, b := range strings.Split(o.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		return fmt.Errorf("-backends is required (comma-separated mlmserve URLs)")
	}
	logger, err := edge.BuildLogger(o.logLevel, o.logJSON)
	if err != nil {
		return err
	}

	coord, err := cluster.New(cluster.Config{
		Backends:        backends,
		PartsPerBackend: o.partsPerNode,
		PollInterval:    o.pollInterval,
		RetainJobs:      o.retain,
		Seed:            o.seed,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	srv, err := cluster.NewServer(cluster.ServerConfig{Coordinator: coord})
	if err != nil {
		return err
	}

	err = edge.Daemon{
		Name: "mlmcoord", Addr: o.addr, Detail: fmt.Sprintf("%d backends", len(backends)),
		Handler: srv, Drain: srv.Drain, DrainTimeout: o.drainTimeout,
	}.Run()
	if err != nil {
		return err
	}
	fmt.Println("mlmcoord: drained")
	return nil
}
