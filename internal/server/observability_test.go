package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"timecache/internal/harness"
	"timecache/internal/promtext"
)

// newTestLogger builds a text-format slog logger writing to w.
func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// traceDoc decodes the subset of the Chrome trace-event format the tests
// inspect.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func getTrace(t *testing.T, ts *httptest.Server, id string) traceDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: %s", id, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("trace content type = %q", ct)
	}
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestJobTrace pins the trace contract: a finished job's trace contains the
// five lifecycle spans (validate, enqueue, queue-wait, run, render) on the
// lifecycle track plus one leg span per machine run, and the lifecycle spans
// tile at least 95% of the job's wall time (request arrival to finished).
func TestJobTrace(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	st, resp := submit(t, ts, smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	final := waitTerminal(t, ts, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}

	doc := getTrace(t, ts, st.ID)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	lifecycle := map[string]float64{} // name -> dur
	var spanSum, minTs, maxEnd float64
	minTs = -1
	legs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat == "lifecycle" {
			lifecycle[ev.Name] += ev.Dur
			spanSum += ev.Dur
			if minTs < 0 || ev.Ts < minTs {
				minTs = ev.Ts
			}
			if end := ev.Ts + ev.Dur; end > maxEnd {
				maxEnd = end
			}
		}
		if ev.Cat == "leg" {
			legs++
			if ev.Args["sim_cycles"] == nil {
				t.Errorf("leg span %s missing sim_cycles arg", ev.Name)
			}
		}
	}
	for _, name := range []string{"validate", "enqueue", "queue-wait", "run", "render"} {
		if _, ok := lifecycle[name]; !ok {
			t.Errorf("lifecycle span %q missing (have %v)", name, lifecycle)
		}
	}
	// smallSpec is one pair under two modes: two machine runs.
	if legs != 2 {
		t.Errorf("leg spans = %d, want 2", legs)
	}
	if total := maxEnd - minTs; total > 0 && spanSum < 0.95*total {
		t.Errorf("lifecycle spans cover %.1fµs of %.1fµs (%.1f%%), want >= 95%%",
			spanSum, total, 100*spanSum/total)
	}
	// The trace is also retrievable mid-life (before terminal state): submit
	// to a workerless server and fetch immediately.
	_, ts2 := startServer(t, Config{Workers: 0})
	st2, _ := submit(t, ts2, smallSpec())
	doc2 := getTrace(t, ts2, st2.ID)
	if len(doc2.TraceEvents) == 0 {
		t.Error("queued job's trace is empty; want validate/enqueue spans")
	}
}

// TestResourceEquivalence: the resource account a job reports over HTTP must
// equal, field for field, what an identical in-process harness run accounts —
// the service adds observability, never different numbers.
func TestResourceEquivalence(t *testing.T) {
	spec := smallSpec()
	_, ts := startServer(t, Config{Workers: 1})
	st, _ := submit(t, ts, spec)
	final := waitTerminal(t, ts, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Resources *JobResources `json:"resources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if result.Resources == nil {
		t.Fatal("result JSON has no resources block")
	}

	account := &harness.ResourceAccount{}
	opts := spec.options()
	opts.Account = account
	if _, err := harness.RunJob(spec.harnessJob(), opts); err != nil {
		t.Fatal(err)
	}
	want := account.Snapshot()
	if result.Resources.Resources != want {
		t.Errorf("HTTP resources = %+v, in-process = %+v", result.Resources.Resources, want)
	}
	if want.Legs == 0 || want.SimCycles == 0 || want.Instructions == 0 ||
		want.L1DAccesses == 0 || want.ContextSwitches == 0 {
		t.Errorf("in-process account left zero counters: %+v", want)
	}
	// Every leg was served by the worker's pool, one way or the other.
	if got := result.Resources.PoolHits + result.Resources.PoolMisses; got != want.Legs {
		t.Errorf("pool hits+misses = %d, want %d (one Get per leg)", got, want.Legs)
	}
}

// scrapeMetrics fetches /metrics, asserts the exposition content type, and
// runs the scrape through the strict promtext parser.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *promtext.Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics content type = %q", ct)
	}
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition failed lint: %v", err)
	}
	return m
}

// TestMetricsExposition parses two live scrapes (with concurrent scrape +
// job traffic in between) through the promtext parser: every family must
// carry # TYPE and # HELP, labels must escape cleanly, and no counter may
// move backwards between scrapes.
func TestMetricsExposition(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	before := scrapeMetrics(t, ts)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrapeMetrics(t, ts)
				}
			}
		}()
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := submit(t, ts, smallSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if final := waitTerminal(t, ts, id, 60*time.Second); final.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, final.State, final.Error)
		}
	}
	close(stop)
	wg.Wait()
	after := scrapeMetrics(t, ts)

	if err := promtext.CheckMonotonic(before, after); err != nil {
		t.Error(err)
	}
	for name, wantType := range map[string]string{
		"timecache_jobs_accepted_total":      "counter",
		"timecache_jobs_finished_total":      "counter",
		"timecache_queue_depth":              "gauge",
		"timecache_sse_subscribers":          "gauge",
		"timecache_pool_hits_total":          "counter",
		"timecache_pool_misses_total":        "counter",
		"timecache_pool_evictions_total":     "counter",
		"timecache_pool_idle_cap":            "gauge",
		"timecache_job_legs_total":           "counter",
		"timecache_sim_cycles_total":         "counter",
		"timecache_sim_instructions_total":   "counter",
		"timecache_cache_accesses_total":     "counter",
		"timecache_context_switches_total":   "counter",
		"timecache_sbit_delayed_loads_total": "counter",
		"timecache_job_duration_ms":          "summary",
		"timecache_experiment_duration_ms":   "summary",
	} {
		f := after.Family(name)
		if f == nil {
			t.Errorf("family %s missing from scrape", name)
			continue
		}
		if f.Type != wantType {
			t.Errorf("family %s type = %s, want %s", name, f.Type, wantType)
		}
	}
	if s := after.Sample("timecache_jobs_accepted_total"); s == nil || s.Value < 3 {
		t.Errorf("jobs_accepted = %+v, want >= 3", s)
	}
	if s := after.Sample("timecache_sim_cycles_total"); s == nil || s.Value <= 0 {
		t.Errorf("sim_cycles = %+v, want > 0", s)
	}
	for _, level := range []string{"l1i", "l1d", "llc"} {
		if s := after.Sample("timecache_cache_accesses_total", promtext.Label{Name: "level", Value: level}); s == nil || s.Value <= 0 {
			t.Errorf("cache_accesses{level=%q} = %+v, want > 0", level, s)
		}
	}
	if s := after.Sample("timecache_experiment_duration_ms_count",
		promtext.Label{Name: "experiment", Value: "table2"}); s == nil || s.Value < 3 {
		t.Errorf("experiment_duration_count{table2} = %+v, want >= 3", s)
	}
	if s := after.Sample("timecache_jobs_finished_total",
		promtext.Label{Name: "state", Value: "done"}); s == nil || s.Value < 3 {
		t.Errorf("finished{done} = %+v, want >= 3", s)
	}
}

// TestSSESubscriberGauge: the gauge tracks open event streams.
func TestSSESubscriberGauge(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 0})
	st, _ := submit(t, ts, smallSpec())
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream is open (job never finishes on a workerless server); the
	// gauge must read 1. Poll: the handler increments after the response
	// headers are written.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := scrapeMetrics(t, ts).Sample("timecache_sse_subscribers"); s != nil && s.Value == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sse_subscribers never reached 1 with an open stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLogLines: every lifecycle transition emits a structured log line
// scoped with the job id.
func TestLogLines(t *testing.T) {
	var buf syncBuffer
	logger := newTestLogger(&buf)
	_, ts := startServer(t, Config{Workers: 1, Logger: logger})
	st, _ := submit(t, ts, smallSpec())
	final := waitTerminal(t, ts, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	logs := buf.String()
	for _, want := range []string{
		"server started",
		"job accepted",
		"job running",
		"job finished",
		`job=` + st.ID,
		"state=done",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %q:\n%s", want, logs)
		}
	}
	if strings.Contains(logs, "level=ERROR") {
		t.Errorf("unexpected error logs:\n%s", logs)
	}
}

// syncBuffer is a goroutine-safe strings.Builder for capturing logs.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var _ io.Writer = (*syncBuffer)(nil)
