package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs      submit a JobRequest; sync (wait, default) or async
//	GET  /v1/jobs/{id} poll an async job's Result
//	GET  /v1/apps      list the registered application catalog
//	GET  /metrics      Prometheus text exposition (recorder + daemon gauges)
//	GET  /healthz      readiness: healthy/degraded/down/draining plus
//	                   wedged-fabric and dead-shard counts; 503 when down
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// retryAfter renders a Retry-After header value: whole seconds, rounded
// up, at least 1 (zero means "retry immediately" to most clients, which
// defeats the backoff).
func retryAfter(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// maxSubmitBody caps a POST /v1/jobs body. A JobRequest encodes in well
// under 1 KiB; the cap keeps a hostile client from making the decoder
// buffer an unbounded body.
const maxSubmitBody = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := JobRequest{Wait: true} // sync response unless the body opts out
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxSubmitBody))
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	out := s.Submit(req)
	switch out.Code {
	case BadRequest:
		httpError(w, http.StatusBadRequest, out.Err.Error())
	case QueueFull:
		w.Header().Set("Retry-After", retryAfter(out.Retry))
		httpError(w, http.StatusTooManyRequests, "admission queue full")
	case Overloaded:
		w.Header().Set("Retry-After", retryAfter(out.Retry))
		httpError(w, http.StatusServiceUnavailable, "overloaded: outstanding-job bound reached")
	case Draining:
		w.Header().Set("Retry-After", retryAfter(out.Retry))
		httpError(w, http.StatusServiceUnavailable, "draining: server is shutting down")
	case Unavailable:
		w.Header().Set("Retry-After", retryAfter(out.Retry))
		httpError(w, http.StatusServiceUnavailable, "unavailable: no healthy worker in the pool")
	case Admitted:
		if !req.Wait {
			writeJSON(w, http.StatusAccepted, map[string]any{"id": out.ID, "status": "pending"})
			return
		}
		select {
		case <-out.Done:
			res, ok := s.Lookup(out.ID)
			if !ok { // evicted between retire and lookup (tiny ResultCap)
				httpError(w, http.StatusInternalServerError, "result evicted before delivery")
				return
			}
			writeJSON(w, http.StatusOK, res)
		case <-r.Context().Done():
			// Client gone; the job still runs to retirement.
		}
	default:
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("unhandled admit code %d", out.Code))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id: "+err.Error())
		return
	}
	res, ok := s.Lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"apps": s.Apps()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status == "down" {
		// Fully degraded: readiness probes must fail the instance.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
