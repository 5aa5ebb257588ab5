package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"

	"timecache/internal/clock"
	"timecache/internal/harness"
	"timecache/internal/machine"
)

// WorkerConfig sizes a leg-executor worker daemon.
type WorkerConfig struct {
	// Clock supplies span timestamps inside leg runs. Nil defaults to the
	// real clock.
	Clock clock.WallClock
	// Logger receives one line per leg served. Nil discards.
	Logger *slog.Logger
}

// worker is the daemon behind timecache-serve -worker: a stateless leg
// executor. The coordinator POSTs {spec, leg} to /v1/legs; the worker runs
// exactly that leg through the shared harness seam and returns the rendered
// slice plus its resource account. Statelessness is the point — any worker
// can run any leg of any job, a worker that dies mid-leg just forfeits its
// lease, and determinism guarantees the replacement renders identical bytes.
type worker struct {
	cfg   WorkerConfig
	clk   clock.WallClock
	log   *slog.Logger
	mux   *http.ServeMux
	pools sync.Pool // *machine.Pool, one checked out per in-flight leg
}

// NewWorker builds the worker daemon's HTTP handler.
func NewWorker(cfg WorkerConfig) http.Handler {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	w := &worker{cfg: cfg, clk: clk, log: logger}
	w.pools.New = func() any { return machine.NewPool() }
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("POST /v1/legs", w.handleLeg)
	return w
}

func (w *worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func (w *worker) handleLeg(rw http.ResponseWriter, r *http.Request) {
	start := w.clk.Now()
	var req legRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decode leg request: %w", err))
		return
	}
	if err := req.Spec.validate(); err != nil {
		// Invalid specs are a permanent condition, same class as a
		// deterministic simulation error: retrying elsewhere cannot help.
		writeError(rw, http.StatusUnprocessableEntity, err)
		return
	}

	account := &harness.ResourceAccount{}
	opts := req.Spec.options()
	opts.Ctx = r.Context()
	opts.Now = w.clk.Now
	opts.Account = account
	pool := w.pools.Get().(*machine.Pool)
	defer w.pools.Put(pool)
	opts.Pool = pool

	ps0 := pool.Stats()
	tab, err := harness.RunJobLeg(req.Spec.harnessJob(), req.Leg, opts)
	ps1 := pool.Stats()
	if err != nil {
		w.log.Warn("leg failed", "experiment", req.Spec.Experiment, "leg", req.Leg, "error", err)
		writeError(rw, http.StatusUnprocessableEntity, err)
		return
	}
	res := JobResources{
		Resources:     account.Snapshot(),
		PoolHits:      ps1.Hits - ps0.Hits,
		PoolMisses:    ps1.Misses - ps0.Misses,
		PoolEvictions: ps1.Evictions - ps0.Evictions,
	}
	w.log.Info("leg served", "experiment", req.Spec.Experiment, "leg", req.Leg,
		"rows", len(tab.Rows), "duration", w.clk.Now().Sub(start))
	writeJSON(rw, http.StatusOK, legResponse{Header: tab.Header, Rows: tab.Rows, Resources: res})
}
