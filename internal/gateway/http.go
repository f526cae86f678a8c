package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"
)

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	// Prompt is the tokenized prompt (the repo has no tokenizer; clients
	// send token ids).
	Prompt []int `json:"prompt"`
	// MaxNewTokens is how many tokens to generate.
	MaxNewTokens int `json:"max_new_tokens"`
	// TimeoutMs, when positive, bounds the request end to end (queue wait
	// included) on the server side; zero or negative means no bound, and a
	// value past what a time.Duration holds (≈9.2e12 ms) is rejected.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// GenerateResponse is the POST /v1/generate success body.
type GenerateResponse struct {
	Tokens  []int   `json:"tokens"`
	QueueMs float64 `json:"queue_ms"`
	TTFTMs  float64 `json:"ttft_ms"`
	TotalMs float64 `json:"total_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gateway's HTTP API:
//
//	POST /v1/generate  {"prompt":[...],"max_new_tokens":n} → tokens + timings
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      Prometheus text exposition
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", g.handleGenerate)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// maxTimeoutMs is the largest timeout_ms a time.Duration holds; a larger
// one would wrap to an arbitrary deadline, possibly one already past.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

func (g *Gateway) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if int64(req.TimeoutMs) > maxTimeoutMs {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("timeout_ms %d exceeds %d", req.TimeoutMs, maxTimeoutMs)})
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := g.Submit(ctx, req.Prompt, req.MaxNewTokens)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			// Retryable conditions: tell well-behaved clients when to come
			// back. The header must land before writeJSON commits the
			// status line.
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, GenerateResponse{
		Tokens:  res.Tokens,
		QueueMs: float64(res.QueueWait) / float64(time.Millisecond),
		TTFTMs:  float64(res.TTFT) / float64(time.Millisecond),
		TotalMs: float64(res.Total) / float64(time.Millisecond),
	})
}

// statusFor maps a Submit error onto its HTTP status: shed traffic is
// 429 (retryable), a draining server 503, a blown deadline 504, a
// client-side cancel 499 (nginx's convention), anything else a 400
// validation failure.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadRequest
	}
}

// retryAfterSeconds is the Retry-After hint on retryable failures (shed
// traffic and a draining server): a drain is bounded by the shutdown
// deadline and queue pressure clears within a scheduling round or two,
// so a short constant beats computing a fake precise estimate.
const retryAfterSeconds = "1"

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.Draining() {
		// Draining is terminal for this process but load balancers poll:
		// the Retry-After keeps naive pollers from hammering the endpoint.
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(g.Prometheus()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
