// The debug query surface over the flight recorder: request finalization
// (wide-event assembly + the tail-sampling decision), the bounded store of
// retained Chrome trace artifacts, and the two read-only endpoints that make
// the black box queryable after an anomaly.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// retainedTrace is one tail-sampled Chrome trace artifact plus why it was
// kept.
type retainedTrace struct {
	data   json.RawMessage
	reason string
}

// traceStore holds the retained trace artifacts, FIFO-bounded: the black box
// keeps the recent anomalies, not an archive. A nil *traceStore (flight
// recorder disabled) no-ops, mirroring the obs nil-recorder convention.
type traceStore struct {
	mu     sync.Mutex
	max    int
	traces map[string]retainedTrace
	order  []string // retention order; front = oldest = next eviction victim
}

func newTraceStore(max int) *traceStore {
	if max <= 0 {
		max = 32
	}
	return &traceStore{max: max, traces: make(map[string]retainedTrace, max)}
}

// put retains a trace under a request id, evicting the oldest beyond the
// bound. A re-sent request id overwrites in place without a second order slot.
func (ts *traceStore) put(id string, data []byte, reason string) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, exists := ts.traces[id]; !exists {
		ts.order = append(ts.order, id)
		for len(ts.order) > ts.max {
			delete(ts.traces, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	ts.traces[id] = retainedTrace{data: data, reason: reason}
}

// get returns the retained trace for a request id, if still held.
func (ts *traceStore) get(id string) (retainedTrace, bool) {
	if ts == nil {
		return retainedTrace{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rt, ok := ts.traces[id]
	return rt, ok
}

// len reports how many traces are currently retained.
func (ts *traceStore) len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// finishRequest completes the request's wide event with what the response
// revealed (status, wall time, error body), makes the tail-sampling retention
// decision, records the event into the ring and the wide log, and returns it
// for /metrics and the request log line.
func (s *Server) finishRequest(st *reqState, sw *statusWriter) obs.WideEvent {
	ev := st.wide
	ev.Wall = time.Since(ev.Start)
	ev.Status = sw.status
	if ev.Status == 0 {
		// Nothing was written at all; net/http will send 200.
		ev.Status = http.StatusOK
	}
	if ev.Status >= 400 && len(sw.errBody) > 0 {
		ev.Error = string(sw.errBody)
	}
	ev.TraceDropped = st.tr.Dropped()

	// The tail-sampling decision point: spans were recorded for every request;
	// the artifact is persisted only when the request turned out to matter —
	// explicitly flagged (?trace=1), errored, or in the slow tail. Everything
	// else lets its recorder go to the garbage collector.
	if st.tr != nil && s.traces != nil {
		reason := ""
		switch {
		case st.forceTrace:
			reason = "flagged"
		case ev.Status >= 400:
			reason = "error"
		case s.cfg.TailThreshold > 0 && ev.Wall >= s.cfg.TailThreshold:
			reason = "slow"
		}
		if reason != "" {
			var buf bytes.Buffer
			if err := st.tr.WriteJSON(&buf); err == nil {
				s.traces.put(ev.ID, buf.Bytes(), reason)
				ev.TraceRetained = true
				ev.RetainReason = reason
			} else {
				s.log.Warn("trace serialization failed", "id", ev.ID, "err", err)
			}
		}
	}

	// The recorder is done (serialized above if retained): hand its storage
	// back to the pool so steady-state tail sampling allocates nothing per
	// request. The ?trace=1 inline copy was serialized into the response
	// before the handler returned, so it is already safe too.
	st.tr.Release()

	ev.Seq = s.flight.Record(ev)
	if err := s.wideLog.Write(&ev); err != nil {
		// The wide log is best-effort durability; a full disk must not fail
		// the request that already succeeded.
		s.log.Warn("wide log write failed", "id", ev.ID, "err", err)
	}
	return ev
}

// debugRequestsResponse answers GET /v1/debug/requests.
type debugRequestsResponse struct {
	// Total is how many events the ring holds before filtering.
	Total int `json:"total"`
	// Count is how many survived the filters (= len(Requests)).
	Count    int             `json:"count"`
	Requests []obs.WideEvent `json:"requests"`
}

// statusFilter matches a wide event's status against a class selector.
type statusFilter func(int) bool

// parseStatusFilter accepts a class ("2xx", "4xx", "5xx") or an exact code.
// "4xx" deliberately excludes 499: client-closed-request is its own class
// (the nginx convention the service adopted), and an operator hunting real
// client errors does not want it mixed in.
func parseStatusFilter(v string) (statusFilter, error) {
	switch v {
	case "2xx":
		return func(s int) bool { return s >= 200 && s < 300 }, nil
	case "4xx":
		return func(s int) bool { return s >= 400 && s < 499 }, nil
	case "5xx":
		return func(s int) bool { return s >= 500 && s < 600 }, nil
	}
	code, err := strconv.Atoi(v)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("bad status filter %q (want 2xx, 4xx, 5xx, or an exact code like 499)", v)
	}
	return func(s int) bool { return s == code }, nil
}

// parseSince accepts a relative duration ("5m" = within the last five
// minutes) or an absolute RFC 3339 timestamp.
func parseSince(v string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(v); err == nil {
		if d < 0 {
			return time.Time{}, fmt.Errorf("bad since duration %q (must be non-negative)", v)
		}
		return now.Add(-d), nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("bad since %q (want a duration like 5m or an RFC 3339 timestamp)", v)
}

// handleDebugRequests serves the flight-recorder ring as JSON, newest first,
// under the documented filters: endpoint=, status=, since=, slowest=N,
// limit=N. Filters compose; slowest re-orders by latency after filtering.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled (FlightRecorderSize < 0)")
		return
	}
	q := r.URL.Query()

	var matchStatus statusFilter
	if v := q.Get("status"); v != "" {
		f, err := parseStatusFilter(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		matchStatus = f
	}
	var since time.Time
	if v := q.Get("since"); v != "" {
		t, err := parseSince(v, time.Now())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		since = t
	}
	slowest := 0
	if v := q.Get("slowest"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad slowest %q (want a positive integer)", v)
			return
		}
		slowest = n
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q (want a positive integer)", v)
			return
		}
		limit = n
	}
	endpoint := q.Get("endpoint")

	all := s.flight.Snapshot() // newest first
	out := make([]obs.WideEvent, 0, len(all))
	for _, ev := range all {
		if endpoint != "" && ev.Endpoint != endpoint {
			continue
		}
		if matchStatus != nil && !matchStatus(ev.Status) {
			continue
		}
		if !since.IsZero() && ev.Start.Before(since) {
			continue
		}
		out = append(out, ev)
	}
	if slowest > 0 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
		if len(out) > slowest {
			out = out[:slowest]
		}
	}
	if len(out) > limit {
		out = out[:limit]
	}
	writeJSON(w, debugRequestsResponse{Total: len(all), Count: len(out), Requests: out})
}

// debugRequestResponse answers GET /v1/debug/requests/{id}: the full wide
// event plus the retained Chrome trace document when tail sampling kept one.
type debugRequestResponse struct {
	Request obs.WideEvent `json:"request"`
	// Trace is the retained Chrome trace_event document (load it in
	// chrome://tracing or Perfetto), present only when the request was
	// retained; RetainReason on the wide event says why.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// handleDebugRequest serves one request's complete flight record by id.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled (FlightRecorderSize < 0)")
		return
	}
	id := r.PathValue("id")
	ev, ok := s.flight.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no flight record for request %q (rotated out of the ring or never seen)", id)
		return
	}
	resp := debugRequestResponse{Request: ev}
	if rt, ok := s.traces.get(id); ok {
		resp.Trace = rt.data
	}
	writeJSON(w, resp)
}
