//go:build !unix

package main

import (
	"log/slog"

	"seabed/internal/server"
)

// watchStats is a no-op where SIGUSR1 does not exist.
func watchStats(*server.Server, *slog.Logger) {}
