package client

import "net/http"

// fleetHealthServer is the shape of a backend that can serve a fleet health
// rollup (fleet.Cluster). Asserted structurally so this package never imports
// the fleet coordinator.
type fleetHealthServer interface {
	ServeHealth(w http.ResponseWriter, r *http.Request)
}

// DebugHandler returns the proxy's debug plane as an http.Handler, the
// trusted-side twin of the daemon's (server.DebugHandler):
//
//	/debug/queries       live-query registry + trace flight recorder (JSON):
//	                     every in-flight Query with its SQL, elapsed time,
//	                     and rows so far, plus the last N completed traces
//	/debug/queries/kill  cancel an in-flight query: POST ?trace=<16-hex
//	                     trace ID>
//	/debug/fleet         fleet health rollup (only when the proxy's backend
//	                     is a fleet coordinator): per-daemon liveness and
//	                     stats, hedge/failover counters, stale ranges
//
// Unlike the daemon's registry — which fingerprints queries by plan shape,
// never seeing plaintext SQL — the proxy's registry records the SQL text:
// the debug plane runs inside the trusted domain. Embedding services mount
// the handler on their own listener; nothing here starts one.
func (p *Proxy) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/queries", p.queries.ServeQueries)
	mux.HandleFunc("/debug/queries/kill", p.queries.ServeKill)
	if hs, ok := p.cluster.(fleetHealthServer); ok {
		mux.HandleFunc("/debug/fleet", hs.ServeHealth)
	}
	return mux
}
