package server

import (
	"encoding/json"
	"fmt"
	"time"

	"timecache/internal/harness"
	"timecache/internal/jobstore"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
)

// Record payloads journaled to the jobstore. One acceptedRecord opens every
// job's history; eventRecords mirror the SSE stream verbatim (so a restart
// replays it byte-identically); legRecords checkpoint completed legs (so an
// interrupted job resumes at its first unfinished leg); a resultRecord
// closes the history and makes the job replay read-only.
type acceptedRecord struct {
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
	Cache   string    `json:"cache,omitempty"`
	Legs    int       `json:"legs"`
}

type stateRecord struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

type eventRecord struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

type legRecord struct {
	Leg       int          `json:"leg"`
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Resources JobResources `json:"resources"`
}

type resultRecord struct {
	State    State         `json:"state"`
	Error    string        `json:"error,omitempty"`
	Done     int           `json:"done"`
	Total    int           `json:"total"`
	Started  time.Time     `json:"started"`
	Finished time.Time     `json:"finished"`
	Header   []string      `json:"header,omitempty"`
	Rows     [][]string    `json:"rows,omitempty"`
	Res      *JobResources `json:"resources,omitempty"`
}

// appendRecord journals one record. Persistence failures are logged and
// counted (the store tracks AppendErrors) but never fail the job: the
// service degrades to in-memory behavior rather than refusing work.
func (s *Server) appendRecord(kind jobstore.Kind, jobID string, payload any) {
	if s.cfg.Store == nil {
		return
	}
	err := s.cfg.Store.Append(jobstore.Record{Kind: kind, JobID: jobID, Payload: mustJSON(payload)})
	if err != nil {
		s.log.Error("jobstore append failed", "kind", kind.String(), "job", jobID, "error", err)
	}
}

// attachPersistence journals the job's acceptance and wires its SSE event
// log into the durable store. Called once per submitted job, after
// admission succeeds and before the first event is published.
func (s *Server) attachPersistence(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	legs := len(j.legs)
	j.mu.Unlock()
	s.appendRecord(jobstore.KindAccepted, j.id, acceptedRecord{
		Spec: j.spec, Created: j.created, Cache: j.cacheDisp, Legs: legs,
	})
	s.journalEvents(j)
}

// journalEvents routes every event the job publishes from now on into the
// durable store.
func (s *Server) journalEvents(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.events.persist = func(ev event) {
		s.appendRecord(jobstore.KindEvent, j.id, eventRecord{Name: ev.name, Data: ev.data})
	}
}

func (s *Server) persistState(j *job, st State) {
	s.appendRecord(jobstore.KindState, j.id, stateRecord{State: st, At: s.now()})
}

func (s *Server) persistLeg(j *job, leg int, tab *stats.Table, res JobResources) {
	s.appendRecord(jobstore.KindLeg, j.id, legRecord{
		Leg: leg, Header: tab.Header, Rows: tab.Rows, Resources: res,
	})
}

func (s *Server) persistResult(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	rec := resultRecord{
		State: j.state, Error: j.errMsg, Done: j.done, Total: j.total,
		Started: j.started, Finished: j.finished, Res: j.resources,
	}
	if j.state == StateDone && j.table != nil {
		rec.Header, rec.Rows = j.table.Header, j.table.Rows
	}
	j.mu.Unlock()
	s.appendRecord(jobstore.KindResult, j.id, rec)
}

// replayedJob accumulates one job's records during log replay.
type replayedJob struct {
	id       string
	accepted *acceptedRecord
	events   []event
	legs     map[int]legRecord
	result   *resultRecord
}

// replay rebuilds the server's job table from the durable log. Runs in New,
// single-threaded, before any executor starts:
//
//   - a job with a resultRecord is reconstructed read-only — terminal state,
//     merged table, resource account, and byte-identical SSE history — and a
//     done job's result re-seeds the result cache (Seed moves no hit/miss
//     counters, so a post-restart cache hit provably re-simulates nothing);
//   - a job without one is re-admitted: completed legs are restored from
//     their legRecords and only the unfinished legs are re-queued. Cache
//     admission re-runs in original submission order, so the first live job
//     of a fingerprint becomes the new singleflight leader — a follower
//     whose leader died mid-crash is re-led — and later ones re-coalesce.
func (s *Server) replay() {
	if s.cfg.Store == nil {
		return
	}
	byID := map[string]*replayedJob{}
	var order []string
	err := s.cfg.Store.Replay(func(r jobstore.Record) error {
		rj := byID[r.JobID]
		if rj == nil {
			rj = &replayedJob{id: r.JobID, legs: map[int]legRecord{}}
			byID[r.JobID] = rj
			order = append(order, r.JobID)
		}
		switch r.Kind {
		case jobstore.KindAccepted:
			var a acceptedRecord
			if err := json.Unmarshal(r.Payload, &a); err != nil {
				return fmt.Errorf("job %s accepted record: %w", r.JobID, err)
			}
			rj.accepted = &a
		case jobstore.KindEvent:
			var e eventRecord
			if err := json.Unmarshal(r.Payload, &e); err != nil {
				return fmt.Errorf("job %s event record: %w", r.JobID, err)
			}
			rj.events = append(rj.events, event{name: e.Name, data: e.Data})
		case jobstore.KindLeg:
			var l legRecord
			if err := json.Unmarshal(r.Payload, &l); err != nil {
				return fmt.Errorf("job %s leg record: %w", r.JobID, err)
			}
			rj.legs[l.Leg] = l
		case jobstore.KindResult:
			var res resultRecord
			if err := json.Unmarshal(r.Payload, &res); err != nil {
				return fmt.Errorf("job %s result record: %w", r.JobID, err)
			}
			rj.result = &res
		case jobstore.KindState:
			// Informational; terminal-ness is decided by the resultRecord.
		}
		return nil
	})
	if err != nil {
		// A log this build cannot read is a deployment problem; refuse to
		// guess at state and start empty rather than half-replayed.
		s.log.Error("jobstore replay failed; starting with empty job table", "error", err)
		return
	}

	var maxID uint64
	for _, id := range order {
		rj := byID[id]
		if rj.accepted == nil {
			continue // acceptance compacted away or torn off; nothing to rebuild
		}
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		if rj.result != nil {
			s.restoreTerminal(rj)
		} else {
			s.resumeJob(rj)
		}
		s.metrics.replayedJobs.Add(1)
	}
	// Never reissue an id that exists in the log.
	for s.nextID.Load() < maxID {
		s.nextID.Store(maxID)
	}
	s.log.Info("jobstore replay complete", "jobs", len(order))
}

// restoreTerminal rebuilds a finished job read-only and re-seeds the result
// cache from a done job's table.
func (s *Server) restoreTerminal(rj *replayedJob) {
	j := newJob(rj.id, rj.accepted.Spec, rj.accepted.Created)
	j.trace = telemetry.NewSpanRecorder(s.clk.Now)
	j.log = s.log.With("job", rj.id, "experiment", rj.accepted.Spec.Experiment)
	j.cacheDisp = rj.accepted.Cache
	res := rj.result
	j.state = res.State
	j.errMsg = res.Error
	j.done, j.total = res.Done, res.Total
	j.started, j.finished = res.Started, res.Finished
	j.resources = res.Res
	if res.State == StateDone {
		j.table = &stats.Table{Header: res.Header, Rows: res.Rows}
	}
	// terminate journals the result record before the terminal state event,
	// so a crash between the two leaves a history without its last event.
	// That event was never delivered — publish journals an event before
	// fanning it out — so it is rebuilt from the restored status.
	hist := rj.events
	if !endsTerminal(hist) {
		hist = append(hist, event{name: "state", data: mustJSON(j.status())})
	}
	j.events.seed(hist)
	j.events.end()
	close(j.doneCh)
	s.register(j)

	if res.State == StateDone && s.cfg.Cache != nil && !j.spec.NoCache {
		s.cfg.Cache.Seed(cacheEntry(j.spec.cacheKey(), j.table,
			cachedMeta{Resources: res.Res, Done: res.Done, Total: res.Total}))
	}
}

// endsTerminal reports whether a job's event history ends on its terminal
// state event.
func endsTerminal(hist []event) bool {
	if len(hist) == 0 || hist[len(hist)-1].name != "state" {
		return false
	}
	var st Status
	return json.Unmarshal(hist[len(hist)-1].data, &st) == nil && st.State.Terminal()
}

// resumeJob re-admits an interrupted job through the same cache admission
// as a submission (in submission order, so the first live job of a
// fingerprint leads and later ones re-coalesce — which is how a follower
// orphaned by its leader's death gets re-led, and an entry seeded by an
// earlier terminal job ends this one outright). Otherwise completed legs
// keep their recorded tables and resource deltas, pending legs go back to
// the scheduler, and the deadline restarts from now.
func (s *Server) resumeJob(rj *replayedJob) {
	j := s.openJob(rj.id, rj.accepted.Spec, rj.accepted.Created)
	j.events.seed(rj.events)
	s.journalEvents(j)
	if !s.admitCache(j, func() {}) {
		return
	}

	hj := j.spec.harnessJob()
	legs, err := harness.JobLegs(hj)
	if err == nil && rj.accepted.Legs != 0 && rj.accepted.Legs != legs {
		// (A coalesced follower journals 0 legs: it was never split.)
		err = fmt.Errorf("accepted as %d legs, this build splits it into %d", rj.accepted.Legs, legs)
	}
	for idx, lr := range rj.legs {
		if err != nil {
			break
		}
		err = harness.CheckLegTable(hj, idx, &stats.Table{Header: lr.Header, Rows: lr.Rows})
	}
	s.takeSlot(j, 0)
	s.register(j)
	if err != nil {
		// The spec was valid when accepted, so the leg address space changed
		// under the log: leg records restored by index would merge rows of
		// different legs. Fail the job explicitly, before any leg runs.
		s.finalize(j, fmt.Errorf("replay: leg address space: %w", err))
		return
	}
	j.initLegs(legs)
	j.mu.Lock()
	for idx, lr := range rj.legs {
		j.legs[idx].status = legDone
		j.legs[idx].table = &stats.Table{Header: lr.Header, Rows: lr.Rows}
		j.legs[idx].res = lr.Resources
		j.legsDone++
	}
	restored := j.legsDone
	j.enqueued = s.now()
	j.mu.Unlock()
	j.log.Info("job replayed; resuming", "legs", legs, "legs_restored", restored)
	if restored == legs {
		// Every leg finished but the terminal record was lost: only the
		// merge remains.
		s.finalize(j, nil)
		return
	}
	s.sched.enqueue(j)
}

// compactStore rewrites the durable log: state and leg records of terminal
// jobs are dropped (their resultRecord carries everything a replay needs;
// eventRecords stay so SSE history still replays), and when Config.StoreRetain
// is set, whole histories of all but the most recent StoreRetain terminal
// jobs are dropped from the log and the in-memory table alike.
func (s *Server) compactStore() (jobstore.Stats, error) {
	if s.cfg.Store == nil {
		return jobstore.Stats{}, fmt.Errorf("job store disabled")
	}
	s.mu.Lock()
	terminal := map[string]bool{}
	var terminalOrder []string
	for _, id := range s.order {
		if s.jobs[id].status().State.Terminal() {
			terminal[id] = true
			terminalOrder = append(terminalOrder, id)
		}
	}
	drop := map[string]bool{}
	if n := s.cfg.StoreRetain; n > 0 && len(terminalOrder) > n {
		for _, id := range terminalOrder[:len(terminalOrder)-n] {
			drop[id] = true
		}
		for _, id := range terminalOrder[:len(terminalOrder)-n] {
			delete(s.jobs, id)
		}
		kept := s.order[:0]
		for _, id := range s.order {
			if !drop[id] {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()

	err := s.cfg.Store.Compact(func(r jobstore.Record) bool {
		if drop[r.JobID] {
			return false
		}
		if !terminal[r.JobID] {
			return true
		}
		switch r.Kind {
		case jobstore.KindAccepted, jobstore.KindEvent, jobstore.KindResult:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return jobstore.Stats{}, err
	}
	st := s.cfg.Store.Stats()
	s.log.Info("jobstore compacted", "records", st.Records, "bytes", st.Bytes,
		"segments", st.Segments, "dropped_jobs", len(drop))
	return st, nil
}
