package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// QueriesPayload is the /debug/queries JSON document: the live-query
// registry's active runs plus the flight recorder's retained traces.
type QueriesPayload struct {
	// Active lists in-flight runs, oldest first.
	Active []QueryInfo `json:"active"`
	// Recent lists retained completed runs, oldest completion first.
	Recent []QueryInfo `json:"recent"`
}

// ServeQueries is the /debug/queries handler: one JSON snapshot of active
// runs and the flight recorder. Both the daemon's and the proxy's debug
// planes mount it, so operators read the same shape everywhere.
func (q *QueryLog) ServeQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(QueriesPayload{Active: q.Active(), Recent: q.Recent()}) //nolint:errcheck // best-effort debug endpoint
}

// ServeKill is the POST /debug/queries/kill?trace=<16-hex> handler: it
// cancels the named in-flight run through its registered per-run cancel func
// — the same context a wire MsgCancel reaches — and reports what happened as
// JSON. Killing is a side effect, so only POST does it: any other method is
// answered 405 with an Allow header and nothing is canceled. 400 for a
// malformed trace ID, 404 when no killable run holds it.
func (q *QueryLog) ServeKill(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		w.WriteHeader(http.StatusMethodNotAllowed)
		json.NewEncoder(w).Encode(map[string]any{"killed": false, "error": "kill with POST"}) //nolint:errcheck
		return
	}
	id, err := strconv.ParseUint(r.URL.Query().Get("trace"), 16, 64)
	if err != nil || id == 0 {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]any{"killed": false, "error": "trace must be a nonzero hex trace ID"}) //nolint:errcheck
		return
	}
	if !q.Kill(id) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{"killed": false, "error": "no killable run with that trace ID"}) //nolint:errcheck
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"killed": true, "trace_id": TraceIDString(id)}) //nolint:errcheck
}
