package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the daemon's debug plane as an http.Handler, served
// from seabed-server's -debug-addr listener (separate from the data port, so
// scrapes and profiles never contend with the wire protocol's framing):
//
//	/metrics       Prometheus text exposition of the server's registry
//	               (request latency histograms, WAL fsync latency, plan-cache
//	               hits, recovery cost, byte counters)
//	/stats         the Stats snapshot as JSON, the encoding SIGUSR1 dumps
//	/debug/queries       live-query registry + trace flight recorder (JSON)
//	/debug/queries/kill  cancel an in-flight run: POST ?trace=<16-hex trace ID>
//	/debug/pprof/  the standard Go profiles
//
// The handler holds no state of its own — every request reads the live
// registry or a fresh Stats snapshot — so it is safe to serve before, during,
// and after Serve.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obsReg.WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats()) //nolint:errcheck // best-effort debug endpoint
	})
	mux.HandleFunc("/debug/queries", s.queries.ServeQueries)
	mux.HandleFunc("/debug/queries/kill", s.queries.ServeKill)
	// net/http/pprof registers on DefaultServeMux at import; route the same
	// handlers on this private mux instead so the debug listener works even
	// when the embedding process never touches the default mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
