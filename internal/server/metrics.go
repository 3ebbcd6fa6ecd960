package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/engine"
	"repro/internal/server/wire"
)

// wireVersionString names the protocol version the server speaks, for the
// metrics document.
func wireVersionString() string { return "v" + wire.Current.String() }

// Metrics is the JSON document the -metrics endpoint serves: the server's
// connection/protocol counters, the engine's statement and transaction
// counters, and the shared plan cache's current size. Every field is a
// monotonic counter or a gauge snapshot — scrape it periodically and diff.
type Metrics struct {
	Server       Stats        `json:"server"`
	Engine       engine.Stats `json:"engine"`
	PlanCacheLen int          `json:"plan_cache_len"`
	Protocol     string       `json:"protocol"`
}

// metrics returns the current metrics snapshot.
func (s *Server) metrics() Metrics {
	return Metrics{
		Server:       s.Stats(),
		Engine:       s.db.Stats(),
		PlanCacheLen: s.db.PlanCacheLen(),
		Protocol:     wireVersionString(),
	}
}

// MetricsHandler serves the metrics snapshot as JSON — mount it on a
// side-channel HTTP listener (wowserver -metrics), never on the wire-protocol
// port.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.metrics()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
