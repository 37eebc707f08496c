package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"dyno/internal/tpch"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST /query      {"sql": ...} or {"query": "Q8p", ...} -> response
//	GET  /status     liveness + config summary
//	GET  /metrics    MetricsSnapshot
//	POST /invalidate bump the statistics epoch (base data changed)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /invalidate", s.handleInvalidate)
	return mux
}

// maxRequestBytes bounds a POST /query body; a request is one SQL text
// plus a few short options.
const maxRequestBytes = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	resp, err := s.query(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded), errors.Is(err, errShuttingDown):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"sf":          s.cfg.SF,
		"scale":       s.cfg.Scale,
		"shards":      s.cfg.Shards,
		"maxInFlight": s.cfg.MaxInFlight,
		"maxQueue":    s.cfg.MaxQueue,
		"epoch":       s.epoch.Load(),
		"queries":     tpch.QueryNames,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"epoch": s.invalidate()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
