//go:build unix

package main

import (
	"encoding/json"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"seabed/internal/server"
)

// watchStats writes a stats snapshot to stderr as one JSON line whenever the
// daemon receives SIGUSR1 — the same encoding the debug listener's /stats
// serves.
func watchStats(srv *server.Server, logger *slog.Logger) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	go func() {
		for range sig {
			b, err := json.Marshal(srv.Stats())
			if err != nil {
				logger.Warn("marshal stats", "err", err)
				continue
			}
			os.Stderr.Write(append(b, '\n')) //nolint:errcheck // best-effort dump
		}
	}()
}
