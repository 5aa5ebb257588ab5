package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timecache/internal/clock"
	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/server"
	"timecache/internal/workload"
)

// serve-durable drives an in-process daemon configured as timecache-serve
// ships it (disk job store, result cache on) from a fixed number of
// closed-loop clients. Every round starts a fresh daemon on an empty
// store, submits the seed's batch of unique cold specs, then resubmits
// each spec hitsPerSpec times; each resubmission is answered from the
// result cache. The store runs with SyncNone: per-append fsync latency on a
// shared disk swings by an order of magnitude between runs and would
// drown the hit path (README.md has the measurements).
const (
	serveExecutors = 2  // in-process leg executors
	serveClients   = 2  // closed-loop clients
	pairRepeats    = 4  // each Table II pair appears this often per batch
	hitsPerSpec    = 50 // resubmissions of each spec per round
	coldWarmup     = 20_000
	coldInstrsBase = 30_000
	serveSync      = jobstore.SyncNone
	storeDir       = ".bench_build/serve-store"
)

// coldSpec is the job spec the clients submit: one Table II pair at a
// small, spec-unique instruction budget.
type coldSpec struct {
	Experiment    string   `json:"experiment"`
	Pairs         []string `json:"pairs"`
	InstrsPerProc uint64   `json:"instrs_per_proc"`
	WarmupInstrs  uint64   `json:"warmup_instrs"`
}

// instructions is the simulated work of one cold job: two legs (baseline
// and TimeCache) of two processes, warmup included.
func (s coldSpec) instructions() uint64 { return 4 * (s.InstrsPerProc + s.WarmupInstrs) }

// splitmix64 is the benchmark's seeded generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// serveSpecs generates the seed's batch: every Table II pair pairRepeats
// times in a seed-shuffled order, each with an instruction budget that
// makes it distinct. Every seed submits the same mix of pairs, so the
// seed changes the order and the exact budgets but not the amount of
// work.
func serveSpecs(seed uint64) []coldSpec {
	rng := splitmix64(seed)
	pairs := workload.SpecPairs()
	offset := rng.next() % 1000
	specs := make([]coldSpec, 0, pairRepeats*len(pairs))
	for r := 0; r < pairRepeats; r++ {
		for _, p := range pairs {
			specs = append(specs, coldSpec{Experiment: harness.ExpTableII, Pairs: []string{p.Label}})
		}
	}
	for i := len(specs) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		specs[i], specs[j] = specs[j], specs[i]
	}
	for i := range specs {
		specs[i].InstrsPerProc = coldInstrsBase + offset + uint64(i)
		specs[i].WarmupInstrs = coldWarmup
	}
	return specs
}

// storeTimer decorates the job store, recording a span per Append.
type storeTimer struct {
	jobstore.Store
	trace *tracer
}

func (s *storeTimer) Append(r jobstore.Record) error {
	t0 := time.Now()
	err := s.Store.Append(r)
	s.trace.Span("Append", "jobstore", t0, time.Now(), map[string]any{"job": r.JobID})
	return err
}

// cacheTimer decorates the result cache's store, recording a span per Get
// and Put.
type cacheTimer struct {
	*resultcache.MemoryStore
	trace *tracer
}

func (c *cacheTimer) Get(key string) (*resultcache.Entry, bool) {
	t0 := time.Now()
	e, ok := c.MemoryStore.Get(key)
	c.trace.Span("Get", "resultcache.get", t0, time.Now(), nil)
	return e, ok
}

func (c *cacheTimer) Put(key string, e *resultcache.Entry) {
	t0 := time.Now()
	c.MemoryStore.Put(key, e)
	c.trace.Span("Put", "resultcache.put", t0, time.Now(), nil)
}

// daemon is one in-process service instance behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	store  jobstore.Store
	base   string
	served chan error
}

// startDaemon opens the store and cache, starts the server, and returns
// once /readyz answers. With a tracer, the store and the cache are
// decorated to record their calls into it.
func startDaemon(hc *http.Client, tr *tracer) (*daemon, error) {
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	disk, err := jobstore.Open(storeDir, jobstore.DiskOptions{Sync: serveSync})
	if err != nil {
		return nil, fmt.Errorf("open job store: %w", err)
	}
	var store jobstore.Store = disk
	cache := resultcache.New(resultcache.WithMaxEntries(512), resultcache.WithMaxBytes(256<<20))
	if tr != nil {
		store = &storeTimer{Store: disk, trace: tr}
		cache = resultcache.New(resultcache.WithStore(&cacheTimer{
			MemoryStore: resultcache.NewMemoryStore(512, 256<<20), trace: tr}))
	}
	srv := server.New(server.Config{
		Workers: serveExecutors,
		Clock:   clock.Real{},
		Cache:   cache,
		Store:   store,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		disk.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, store: disk,
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := hc.Get(d.base + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the server, closes the listener and the store, and waits for
// the serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if e := d.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	if e := d.store.Close(); err == nil {
		err = e
	}
	if e := os.RemoveAll(storeDir); err == nil {
		err = e
	}
	return err
}

// jobResult is one client-observed job.
type jobResult struct {
	id                  string
	disposition         string // X-Timecache-Cache
	body                string // result CSV
	total               time.Duration
	submit, wait, fetch time.Duration
	err                 error
}

// runJob submits spec, waits for the job's SSE stream to close, and fetches
// the result: the path a submitter that waits for its answer takes. With a
// tracer, the three HTTP phases are recorded as spans of the job.
func runJob(hc *http.Client, base string, spec []byte, tr *tracer) jobResult {
	var r jobResult
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		r.err = err
		return r
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("submit: %s", resp.Status)
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.id, r.disposition = st.ID, resp.Header.Get("X-Timecache-Cache")
	t1 := time.Now()
	state, err := awaitState(hc, base+"/v1/jobs/"+r.id+"/events")
	if err != nil {
		r.err = err
		return r
	}
	if state != "done" {
		r.err = fmt.Errorf("job %s ended %s", r.id, state)
		return r
	}
	t2 := time.Now()
	resp, err = hc.Get(base + "/v1/jobs/" + r.id + "/result")
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("result: %s", resp.Status)
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("result: %w", err)
		return r
	}
	t3 := time.Now()
	r.body = string(b)
	r.submit, r.wait, r.fetch, r.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	if tr != nil {
		args := map[string]any{"job": r.id, "cache": r.disposition}
		tr.Span("submit", "http", t0, t1, args)
		tr.Span("wait", "http", t1, t2, args)
		tr.Span("fetch", "http", t2, t3, args)
	}
	return r
}

// awaitState reads a job's SSE stream until the server closes it and
// returns the state carried by the last "state" event.
func awaitState(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	var state, event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return "", fmt.Errorf("events: %w", err)
			}
			state = st.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return state, nil
}

// closedLoop runs n jobs from clients goroutines, each submitting its next
// job only when the previous one has answered, and returns the phase wall
// time.
func closedLoop(n int, job func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// roundResult is what one daemon round measured.
type roundResult struct {
	setup             time.Duration
	coldWall, hitWall time.Duration
	cold, hits        []jobResult
	peakMB            float64
	runtime           runtimeCounters
	// Traced rounds only.
	coldAppends, hitAppends int
	queueWaitMs, runMs      []float64
	cacheStats              resultcache.Stats
}

// serveRound runs one daemon round; tr, when non-nil, traces it.
func serveRound(specs [][]byte, tr *tracer) (roundResult, error) {
	quiesce()
	var r roundResult
	// The timeout turns a job that never finishes into a failed job instead
	// of a hung run; a cold job takes well under a second.
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		Timeout:   30 * time.Second,
	}
	defer hc.CloseIdleConnections()
	t0 := time.Now()
	d, err := startDaemon(hc, tr)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)

	var appends0, appends1 int
	if tr != nil {
		appends0 = tr.count("jobstore")
	}
	heap := startHeapSampler()
	rt0 := readRuntime()
	r.cold = make([]jobResult, len(specs))
	r.coldWall = closedLoop(len(specs), func(i int) { r.cold[i] = runJob(hc, d.base, specs[i], tr) })
	if tr != nil {
		appends1 = tr.count("jobstore")
	}
	r.hits = make([]jobResult, len(specs)*hitsPerSpec)
	r.hitWall = closedLoop(len(r.hits), func(i int) { r.hits[i] = runJob(hc, d.base, specs[i%len(specs)], tr) })
	r.runtime = readRuntime().sub(rt0)
	r.peakMB = heap.finish()
	if tr != nil {
		r.coldAppends = appends1 - appends0
		r.hitAppends = tr.count("jobstore") - appends1
		if err := traceRound(hc, d.base, &r); err != nil {
			d.stop()
			return r, err
		}
	}
	return r, d.stop()
}

// traceRound reads each cold job's lifecycle trace and the cache counters,
// after the round's timed phases.
func traceRound(hc *http.Client, base string, r *roundResult) error {
	for _, j := range r.cold {
		if j.err != nil {
			continue
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := getJSON(hc, base+"/v1/jobs/"+j.id+"/trace", &tr); err != nil {
			return err
		}
		var wait, run float64
		for _, ev := range tr.TraceEvents {
			switch ev.Name {
			case "queue-wait":
				wait += ev.Dur / 1e3
			case "run":
				run += ev.Dur / 1e3
			}
		}
		r.queueWaitMs = append(r.queueWaitMs, wait)
		r.runMs = append(r.runMs, run)
	}
	return getJSON(hc, base+"/v1/cache/stats", &r.cacheStats)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runServeDurable runs daemon rounds for the time budget, checks every
// answer, and derives the serve metrics.
func runServeDurable(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	checkGoldenSlice(out)
	specs := serveSpecs(cfg.seed)
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	if err := os.MkdirAll(filepath.Dir(storeDir), 0o755); err != nil {
		return nil, err
	}

	var plain, traced []roundResult
	tr := &tracer{} // spans of every traced round
	rounds := func(budget float64, minRounds int, traceOn bool) error {
		start := time.Now()
		for i := 0; i < minRounds || time.Since(start).Seconds() < budget; i++ {
			var rt *tracer
			if traceOn {
				rt = tr
			}
			r, err := serveRound(bodies, rt)
			if err != nil {
				return err
			}
			checkRound(out, specs, r, plain)
			if traceOn {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		return nil
	}
	var prof []byte
	if !cfg.trace {
		if err := rounds(cfg.seconds, 3, false); err != nil {
			return nil, err
		}
	} else {
		if err := rounds(cfg.seconds/2, 2, false); err != nil {
			return nil, err
		}
		if err := withCPUProfile(&prof, func() error { return rounds(cfg.seconds/2, 2, true) }); err != nil {
			return nil, err
		}
	}
	checkInProcess(out, cfg.seed, specs, plain[0])

	var hitWalls, coldRates, setups, heaps []float64
	var coldLat, hitLat []float64
	var coldWall, hitWall time.Duration
	var coldInstrs uint64
	var rt runtimeCounters
	split := map[string][]float64{}
	for _, r := range plain {
		hitWalls = append(hitWalls, r.hitWall.Seconds())
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.peakMB)
		coldWall += r.coldWall
		hitWall += r.hitWall
		rt = rt.add(r.runtime)
		var instrs uint64
		for i, j := range r.cold {
			instrs += specs[i].instructions()
			if j.err == nil {
				coldLat = append(coldLat, ms(j.total))
				addSplit(split, "cold", j)
			}
		}
		coldInstrs += instrs
		coldRates = append(coldRates, float64(instrs)/1e6/r.coldWall.Seconds())
		for _, j := range r.hits {
			if j.err == nil {
				hitLat = append(hitLat, ms(j.total))
				addSplit(split, "hit", j)
			}
		}
	}
	out.e2e["wall_s"] = median(hitWalls)
	out.e2e["minstr_per_s"] = median(coldRates)
	out.e2e["setup_s"] = median(setups)
	out.e2e["peak_heap_mb"] = median(heaps)

	l := out.layers
	l["cold_jobs_per_s"] = float64(len(coldLat)) / coldWall.Seconds()
	l["cold_p50_ms"] = percentile(coldLat, 50)
	l["cold_p90_ms"] = percentile(coldLat, 90)
	l["hit_jobs_per_s"] = float64(len(hitLat)) / hitWall.Seconds()
	l["hit_p50_ms"] = percentile(hitLat, 50)
	l["hit_p99_ms"] = percentile(hitLat, 99)
	for k, v := range split {
		l[k] = percentile(v, 50)
	}
	putRuntime(l, rt, coldInstrs)
	// The simulator's inner layers are timed only by the in-process
	// workloads.
	zeroUnset(l, "harness.", "runner.", "machine.", "sim.", "cache.", "kernel.", "workload.", "env.", "model.")

	out.note("# serve-durable: %d rounds, seed %d, %d executors, %d closed-loop clients, store fsync per append: %v",
		len(plain), cfg.seed, serveExecutors, serveClients, serveSync == jobstore.SyncAlways)
	out.note("wall_s %.4f s (hit phase of %d resubmissions, median of %d rounds: %s)",
		out.e2e["wall_s"], len(specs)*hitsPerSpec, len(hitWalls), fmtList(hitWalls))
	out.note("minstr_per_s %.4f Minstr/s (cold phase, median over rounds; %d instructions per round)",
		out.e2e["minstr_per_s"], coldInstrs/uint64(len(plain)))
	out.note("setup_s %.6f s (store open + server start + readyz, median of %d)", out.e2e["setup_s"], len(setups))
	out.note("peak_heap_mb %.2f MB (median of per-round peaks)", out.e2e["peak_heap_mb"])
	out.note("cold_jobs_per_s %.3f 1/s, cold_p50_ms %.3f ms, cold_p90_ms %.3f ms (n=%d, tail ok: %v)",
		l["cold_jobs_per_s"], l["cold_p50_ms"], l["cold_p90_ms"], len(coldLat), tailOK(len(coldLat), 90))
	out.note("hit_jobs_per_s %.1f 1/s, hit_p50_ms %.4f ms, hit_p99_ms %.4f ms (n=%d, tail ok: %v)",
		l["hit_jobs_per_s"], l["hit_p50_ms"], l["hit_p99_ms"], len(hitLat), tailOK(len(hitLat), 99))

	if cfg.trace {
		if err := putProfile(l, prof); err != nil {
			return nil, err
		}
		var tw, qw, run, appends []float64
		var coldApp, hitApp, nCold, nHit int
		var appendBusy, phaseWall float64
		var getUs []float64
		var cs resultcache.Stats
		for _, r := range traced {
			tw = append(tw, r.hitWall.Seconds())
			qw = append(qw, r.queueWaitMs...)
			run = append(run, r.runMs...)
			coldApp += r.coldAppends
			hitApp += r.hitAppends
			nCold += len(r.cold)
			nHit += len(r.hits)
			phaseWall += r.coldWall.Seconds() + r.hitWall.Seconds()
			cs.Hits += r.cacheStats.Hits
			cs.Misses += r.cacheStats.Misses
			cs.Coalesced += r.cacheStats.Coalesced
		}
		for _, a := range tr.byCat("jobstore") {
			appends = append(appends, a*1e3)
			appendBusy += a / 1e3
		}
		for _, g := range tr.byCat("resultcache.get") {
			getUs = append(getUs, g*1e3)
		}
		l["trace.overhead_frac"] = median(tw)/out.e2e["wall_s"] - 1
		l["server.queue_wait_ms_p50"] = percentile(qw, 50)
		l["server.run_ms_p50"] = percentile(run, 50)
		l["jobstore.appends_per_cold"] = frac(float64(coldApp), float64(nCold))
		l["jobstore.appends_per_hit"] = frac(float64(hitApp), float64(nHit))
		l["jobstore.append_us_p50"] = percentile(appends, 50)
		l["jobstore.append_us_p99"] = percentile(appends, 99)
		l["jobstore.append_busy_frac"] = frac(appendBusy, phaseWall)
		l["resultcache.hit_frac"] = frac(float64(cs.Hits), float64(cs.Hits+cs.Misses+cs.Coalesced))
		l["resultcache.get_us_p50"] = percentile(getUs, 50)
		path := ".bench_build/trace-serve-durable.json"
		if err := writeTrace(path, tr); err != nil {
			return nil, err
		}
		out.note("spans of the traced rounds written to %s", path)
	}
	out.note("error_frac %.4f (%d failed of %d jobs)", frac(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	return out, nil
}

// addSplit records one job's HTTP phase times under hit or cold.
func addSplit(split map[string][]float64, kind string, j jobResult) {
	split["http.submit_ms_p50_"+kind] = append(split["http.submit_ms_p50_"+kind], ms(j.submit))
	split["http.wait_ms_p50_"+kind] = append(split["http.wait_ms_p50_"+kind], ms(j.wait))
	split["http.fetch_ms_p50_"+kind] = append(split["http.fetch_ms_p50_"+kind], ms(j.fetch))
}

// checkRound checks one round's answers: every job answered 2xx and
// finished done, cold jobs missed the cache and hits hit it, every hit
// returned its cold answer's bytes, and cold answers repeat across rounds.
func checkRound(out *outcome, specs []coldSpec, r roundResult, earlier []roundResult) {
	for i, j := range r.cold {
		out.attempted++
		switch {
		case j.err != nil:
			out.failed++
			out.fail("cold job %d: %v", i, j.err)
		case j.disposition != "miss":
			out.failed++
			out.fail("cold job %d (%v) answered from cache (%s)", i, specs[i].Pairs, j.disposition)
		case len(earlier) > 0 && j.body != earlier[0].cold[i].body:
			out.failed++
			out.fail("cold job %d bytes differ from the first round", i)
		}
	}
	for i, j := range r.hits {
		out.attempted++
		cold := r.cold[i%len(r.cold)]
		switch {
		case j.err != nil:
			out.failed++
			out.fail("hit job %d: %v", i, j.err)
		case j.disposition != "hit":
			out.failed++
			out.fail("resubmitted job %d not a cache hit (%s)", i, j.disposition)
		case j.body != cold.body:
			out.failed++
			out.fail("hit job %d bytes differ from its cold answer", i)
		}
	}
}

// checkInProcess compares a seed-chosen sample of cold answers with the
// same specs run in process through harness.RunJob, outside the timed
// rounds, and checks the instruction count the throughput is based on.
func checkInProcess(out *outcome, seed uint64, specs []coldSpec, r roundResult) {
	rng := splitmix64(seed ^ 0x5eed)
	for n := 0; n < 2; n++ {
		i := int(rng.next() % uint64(len(specs)))
		s := specs[i]
		out.attempted++
		var acct harness.ResourceAccount
		tab, err := harness.RunJob(harness.Job{Experiment: s.Experiment, Pairs: s.Pairs},
			harness.Options{InstrsPerProc: s.InstrsPerProc, WarmupInstrs: s.WarmupInstrs, Jobs: 1, Account: &acct})
		switch {
		case err != nil:
			out.failed++
			out.fail("in-process run of spec %d: %v", i, err)
		case tab.CSV() != r.cold[i].body:
			out.failed++
			out.fail("spec %d: HTTP answer differs from in-process RunJob:\n%s\nvs\n%s", i, r.cold[i].body, tab.CSV())
		case acct.Snapshot().Instructions != s.instructions():
			out.failed++
			out.fail("spec %d simulated %d instructions, throughput assumes %d", i, acct.Snapshot().Instructions, s.instructions())
		}
	}
}
