package edge

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// BuildLogger maps -log-level/-log-json onto a slog.Logger on stderr
// (stdout stays machine-parsable: the listen line and drain summary).
// Level "off" returns nil, which every layer treats as logging disabled.
func BuildLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, error, or off", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// Daemon is the process shell of a /v1 server.
type Daemon struct {
	// Name prefixes every line the shell prints ("mlmserve").
	Name string
	// Addr is the listen address; port 0 picks a free port.
	Addr string
	// Detail closes the listen line: "<Name> listening on <addr> (<Detail>)".
	Detail  string
	Handler http.Handler
	// Drain stops admissions and waits for in-flight jobs; it runs on
	// SIGINT/SIGTERM, bounded by DrainTimeout, before the listener shuts.
	Drain        func(context.Context) error
	DrainTimeout time.Duration
}

// Run listens, prints the one line wrappers binding port 0 discover the
// port from, and serves until SIGINT or SIGTERM; then it drains and
// shuts the listener down. A nil return means a completed graceful
// stop: the caller prints its own "drained" summary.
func (d Daemon) Run() error {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s listening on %s (%s)\n", d.Name, ln.Addr(), d.Detail)

	hs := &http.Server{Handler: d.Handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("%s: %v — draining\n", d.Name, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", d.Name, err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
