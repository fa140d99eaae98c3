package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/trace"
)

// JobView is the JSON shape of a job on the HTTP surface.
type JobView struct {
	ID        uint32          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	Attempts  int             `json:"attempts,omitempty"` // requeues after fleet failures
	M         int             `json:"m"`
	N         int             `json:"n"`
	Priority  int             `json:"priority,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Gflops    float64         `json:"gflops,omitempty"`
	Residual  float64         `json:"residual,omitempty"`
	OK        bool            `json:"ok"`
	Firings   int64           `json:"firings,omitempty"`
	Messages  int64           `json:"messages,omitempty"`
	Bytes     int64           `json:"bytes,omitempty"`
	Spans     *obs.SpanReport `json:"spans,omitempty"`  // lifecycle span accounting, live or final
	Flight    []obs.Event     `json:"flight,omitempty"` // flight-recorder tail on troubled terminals
	Plan      *PlanView       `json:"plan,omitempty"`   // autotuner decision, when the job was planned
	R         [][]float64     `json:"r,omitempty"`
}

// PlanView is the job view's autotuning block: the chosen configuration,
// what the simulator predicted, and — once the job is done — how reality
// compared.
type PlanView struct {
	Tree                string  `json:"tree"`
	NB                  int     `json:"nb"`
	IB                  int     `json:"ib"`
	H                   int     `json:"h,omitempty"`
	Ranks               int     `json:"ranks"`
	PredictedMS         float64 `json:"predicted_ms"`
	SpeedupVsDefault    float64 `json:"speedup_vs_default,omitempty"`
	FromCache           bool    `json:"from_cache,omitempty"`
	PlanMS              float64 `json:"plan_ms"`
	ActualOverPredicted float64 `json:"actual_over_predicted,omitempty"` // set once the job is done
	Rationale           string  `json:"rationale,omitempty"`
}

func viewOf(j *Job, includeR bool) JobView {
	state, errMsg := j.State()
	v := JobView{
		ID:       j.ID,
		Status:   string(state),
		Error:    errMsg,
		Tenant:   j.Spec.Tenant,
		Attempts: j.Attempts(),
		M:        j.Spec.M,
		N:        j.Spec.N,
		Priority: j.Spec.Priority,
	}
	if j.life.Started() {
		rep := j.Spans().Report()
		v.Spans = &rep
	}
	v.Flight = j.Flight()
	if d := j.Plan(); d != nil {
		c := d.Choice
		v.Plan = &PlanView{
			Tree: c.Tree, NB: c.NB, IB: c.IB, H: c.H, Ranks: c.Ranks,
			PredictedMS:      c.PredictedMS,
			SpeedupVsDefault: d.SpeedupVsDefault,
			FromCache:        d.FromCache,
			PlanMS:           d.PlanMS,
			Rationale:        d.Rationale,
		}
	}
	if r := j.Result(); r != nil {
		v.ElapsedMS = float64(r.Elapsed) / float64(time.Millisecond)
		v.Gflops = r.Gflops
		v.Residual = r.Residual
		v.OK = r.OK
		if v.Plan != nil && v.Plan.PredictedMS > 0 {
			v.Plan.ActualOverPredicted = v.ElapsedMS / v.Plan.PredictedMS
		}
		v.Firings = r.Stats.Firings
		v.Messages = r.Stats.Messages
		v.Bytes = r.Stats.Bytes
		if includeR {
			v.R = r.R()
		}
	}
	return v
}

// submitRequest is the POST /v1/factorize body: a JobSpec plus the wait
// flag, which blocks the response until the job is terminal.
type submitRequest struct {
	JobSpec
	Wait bool `json:"wait,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/factorize", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/sessions/{id}/r", s.handleSessionR)
	mux.HandleFunc("POST /v1/sessions/{id}/append", s.handleSessionAppend)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/machine-model", s.handleMachineModel)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return
	}
	j, err := s.Submit(req.JobSpec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Explicit backpressure: 429, nothing buffered. Retry-After scales
		// with how many queued jobs must drain per execution slot before a
		// retry can be admitted, so clients back off harder the deeper the
		// queue — without any client-side knowledge of server sizing.
		s.shed429(w, "job", req.Tenant, s.mgr.Depth(), s.cfg.MaxConcurrent, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// Client went away while waiting; the job keeps running.
			writeJSON(w, http.StatusAccepted, viewOf(j, false))
			return
		}
		writeJSON(w, http.StatusOK, viewOf(j, false))
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j, false))
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad job id"})
		return nil
	}
	j, err := s.Get(uint32(id))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
		return nil
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j, r.URL.Query().Get("include") == "r"))
}

// handleTrace streams the job's gathered per-rank trace shards as JSONL,
// ready for qrtrace -merge. 404 until the job completed with Trace set.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	shards := j.TraceShards()
	if shards == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"no trace for this job (submit with \"trace\": true and wait for completion)"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	trace.WriteShards(w, shards...)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, viewOf(j, false))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	bi := buildInfo(s.cfg.Threads)
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":           true,
		"ranks":        s.Ranks(),
		"ranks_live":   s.AgentsLive(),
		"degraded":     s.Degraded(),
		"threads":      s.cfg.Threads,
		"version":      bi.Version,
		"kernel":       bi.Kernel,
		"cpu_features": bi.CPUFeatures,
		"numa_nodes":   bi.NUMANodes,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w, s.mgr.Depth(), s.resident())
	// Process-level goroutine count: the smoke tests diff it across a batch
	// stream to prove the scheduler leaks nothing.
	fmt.Fprintf(w, "# HELP qrserve_goroutines Goroutines live in the server process.\n# TYPE qrserve_goroutines gauge\nqrserve_goroutines %d\n", runtime.NumGoroutine())
	s.writeSessionProm(w)
	s.writeTransportProm(w)
	s.writeObsProm(w)
}

// retryAfterSeconds derives a 429 Retry-After hint from queue depth: one
// second per queued job per execution slot, clamped to [1, 30].
func retryAfterSeconds(depth, slots int) int {
	if slots < 1 {
		slots = 1
	}
	sec := 1 + depth/slots
	if sec > 30 {
		sec = 30
	}
	return sec
}

// shed429 is the one load-shedding response for every admission class — the
// job queue, batch streams, session opens and session append streams all
// refuse work through it, so clients see a uniform 429 + Retry-After
// contract (depth is the work already admitted in that class, slots its
// drain parallelism) and every shed emits one structured event carrying the
// class, the tenant and the hint it was sent.
func (s *Server) shed429(w http.ResponseWriter, class, tenant string, depth, slots int, msg string) {
	sec := retryAfterSeconds(depth, slots)
	s.obs.Emit(obs.Event{Kind: obs.EvShed, Class: class, Tenant: tenant, RetryS: sec, Detail: msg})
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{msg})
}
