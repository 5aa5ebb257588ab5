package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"timecache/internal/jobstore"
)

// TestReplayEveryPrefix enumerates crash points: the log of a 3-leg cold job
// followed by its cache hit is cut after every record and replayed into a
// fresh cached server. After a drain, every job the prefix accepted must be
// terminal, its SSE history must hold exactly one terminal state event —
// the last one, agreeing with GET /v1/jobs/{id} — and a done job's result
// must be byte-identical to the uncrashed run's.
func TestReplayEveryPrefix(t *testing.T) {
	store := jobstore.NewMem()
	cfg := cachedConfig(2)
	cfg.Store = store
	s, ts := startServer(t, cfg)
	cold, hdr := submitHdr(t, ts, multiLegSpec())
	if hdr != cacheMiss {
		t.Fatalf("cold submit header = %q, want miss", hdr)
	}
	if final := waitTerminal(t, ts, cold.ID, time.Minute); final.State != StateDone {
		t.Fatalf("cold job = %s (%s), want done", final.State, final.Error)
	}
	if _, hdr := submitHdr(t, ts, multiLegSpec()); hdr != cacheHit {
		t.Fatalf("resubmit header = %q, want hit", hdr)
	}
	wantCSV := fetchCSV(t, ts, cold.ID)
	drain(t, s)

	var recs []jobstore.Record
	if err := store.Replay(func(r jobstore.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(recs); n++ {
		prefix := jobstore.NewMem()
		accepted := map[string]bool{}
		for _, r := range recs[:n] {
			if err := prefix.Append(r); err != nil {
				t.Fatal(err)
			}
			if r.Kind == jobstore.KindAccepted {
				accepted[r.JobID] = true
			}
		}
		cfg := cachedConfig(2)
		cfg.Store = prefix
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		drain(t, s)
		for id := range accepted {
			st := getStatus(t, ts, id)
			if !st.State.Terminal() {
				t.Errorf("prefix %d/%d: job %s is %s after drain, want terminal", n, len(recs), id, st.State)
				continue
			}
			evs := readSSE(t, ts, id)
			terminal, at := 0, -1
			for i, ev := range evs {
				if ev.Name != "state" {
					continue
				}
				var es Status
				if err := json.Unmarshal([]byte(ev.Data), &es); err != nil {
					t.Fatalf("prefix %d: job %s state event: %v", n, id, err)
				}
				if es.State.Terminal() {
					terminal, at = terminal+1, i
					if es.State != st.State || es.Error != st.Error {
						t.Errorf("prefix %d/%d: job %s terminal event %s (%q), status %s (%q)",
							n, len(recs), id, es.State, es.Error, st.State, st.Error)
					}
				}
			}
			if terminal != 1 || at != len(evs)-1 {
				t.Errorf("prefix %d/%d: job %s history has %d terminal state events in %v, want exactly one, last",
					n, len(recs), id, terminal, evs)
			}
			if st.State == StateDone {
				if got := fetchCSV(t, ts, id); !bytes.Equal(got, wantCSV) {
					t.Errorf("prefix %d/%d: job %s CSV diverged\n--- want ---\n%s--- got ---\n%s", n, len(recs), id, wantCSV, got)
				}
			}
		}
		ts.Close()
	}
}

// drain stops s, failing the test if its jobs do not wind down.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
