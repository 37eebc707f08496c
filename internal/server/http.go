package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"dyno/internal/data"
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
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
	writeQuery(w, resp)
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
	_ = json.NewEncoder(w).Encode(v)
}

// writeQuery writes a query's response: its rows' stored JSON spliced
// in as "rows", then the other fields as encoding/json writes them.
func writeQuery(w http.ResponseWriter, r *response) {
	rows, err := r.enc.prefix(r.Rows)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rest, err := json.Marshal(struct {
		*response
		Rows *struct{} `json:"rows,omitempty"` // nil: shadows response.Rows
	}{response: r})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body := append(make([]byte, 0, len(rows)+len(rest)+16), `{"rows":`...)
	if r.Rows == nil {
		body = append(body, "null"...)
	} else {
		body = append(append(append(body, '['), rows...), ']')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(append(append(body, ','), rest[1:]...), '\n'))
}

// encodedRows is an execution's rows as JSON, each row encoded the
// first time a response needs it: buf holds rows 0..len(ends)-1, each
// followed by a comma, row i ending at ends[i]. Written bytes never
// change, so a prefix handed out stays valid while later rows append.
type encodedRows struct {
	mu   sync.Mutex
	buf  []byte
	ends []int
}

// prefix returns rows, a prefix of the execution's rows, as the
// comma-separated elements of a JSON array.
func (e *encodedRows) prefix(rows []data.Value) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := len(e.ends); i < len(rows); i++ {
		row := rows[i].String()
		if !json.Valid([]byte(row)) {
			return nil, fmt.Errorf("server: row %d is not JSON: %.80s", i, row)
		}
		e.ends = append(e.ends, len(e.buf)+len(row))
		e.buf = append(append(e.buf, row...), ',')
	}
	if len(rows) == 0 {
		return nil, nil
	}
	end := e.ends[len(rows)-1]
	return e.buf[:end:end], nil
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
