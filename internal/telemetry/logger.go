package telemetry

import (
	"io"
	"log/slog"
)

// NopLogger returns a logger whose handler is never enabled: what a nil
// Config.Logger selects in every layer, so log sites stay branch-cheap
// without nil checks.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}
