package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Config tunes a Server. The zero value of every field picks a sane
// production default.
type Config struct {
	// Registry supplies cell calculators (required).
	Registry *Registry
	// Workers is the sta.Options.Workers budget handed to every analysis
	// (0 = one per CPU, the engine default).
	Workers int
	// MaxInflight bounds concurrently admitted analysis/upload requests;
	// request MaxInflight+1 is answered 429 with Retry-After instead of
	// queueing unboundedly. Default 64.
	MaxInflight int
	// RequestTimeout is the per-request context budget; an analysis that
	// outlives it is abandoned at the next level boundary and answered 504.
	// Default 30s.
	RequestTimeout time.Duration
	// MaxNetlists bounds resident compiled netlists; the least recently
	// used handle is evicted beyond it (clients see 404 and re-upload).
	// Default 64.
	MaxNetlists int
	// MaxBaselines bounds cached baseline results for delta analysis
	// (/v1/analyze with keepBaseline, /v1/analyze:delta), LRU-evicted like
	// the netlist registry. Evicting a netlist also drops its baselines —
	// a baseline indexes the compiled handle's arrival slab and is
	// meaningless without it. Default 128.
	MaxBaselines int
	// Logger receives one structured line per request (id, method, path,
	// status, duration, engine cost) plus admission rejections. Nil discards
	// the logs — tests and embedded uses stay silent by default.
	Logger *slog.Logger
	// FlightRecorderSize bounds the wide-event ring behind /v1/debug/requests
	// (one record per request: ids, status, phase breakdown, engine
	// counters). 0 picks obs.DefaultFlightSize; negative disables the flight
	// recorder entirely — no ring, no per-request span recording, no debug
	// query surface (the recorder-off reference the bench guard measures).
	FlightRecorderSize int
	// TailThreshold is the latency above which a request's full span trace
	// is retained after the fact (tail sampling). Requests that error or ask
	// ?trace=1 are retained regardless. 0 picks 250ms; negative retains only
	// errored/flagged requests.
	TailThreshold time.Duration
	// MaxRetainedTraces bounds the retained Chrome trace artifacts (FIFO
	// beyond it). Default 32 — the black box keeps the recent anomalies, not
	// an archive.
	MaxRetainedTraces int
	// TraceEventCap bounds span events recorded per request; beyond it spans
	// are dropped and counted in the wide event's traceDropped. 0 picks
	// 8192; negative means unlimited.
	TraceEventCap int
	// WideLog, when non-nil, additionally receives every wide event as one
	// JSON line (stad -wide-log): the durable twin of the in-memory ring.
	WideLog io.Writer
}

// Server is the timing-analysis HTTP service. It implements http.Handler;
// mount it directly or via Handler().
//
//	POST /v1/netlists       upload + levelize a netlist, get a handle
//	POST /v1/analyze        one stimulus vector against a handle (?trace=1
//	                        adds a Chrome trace_event document to the reply;
//	                        keepBaseline caches the result for delta queries)
//	POST /v1/analyze:delta  re-time a cached baseline under a stimulus edit,
//	                        re-evaluating only the gates the edit can reach
//	POST /v1/analyze:batch  a vector set through AnalyzeBatch
//	POST /v1/analyze:mc     Monte-Carlo analysis under process variation:
//	                        per-output arrival distributions, criticality,
//	                        corner presets (admission-weighted by samples)
//	POST /v1/explain        per-net proximity decision traces for one vector
//	GET  /healthz           liveness + cache/admission occupancy
//	GET  /metrics           counters + latency/phase histograms (JSON;
//	                        ?format=prom for Prometheus text exposition),
//	                        all derived from the requests' wide events
//	GET  /v1/debug/requests the flight recorder's wide events, newest first
//	                        (endpoint=, status=, since=, slowest=, limit=)
//	GET  /v1/debug/requests/{id}
//	                        one request's wide event plus its retained
//	                        Chrome trace, if tail sampling kept one
//
// Every POST endpoint runs through one request pipeline (see route).
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux
	sem     chan struct{}
	log     *slog.Logger

	// flight is the wide-event ring (nil when disabled); traces holds the
	// tail-sampled Chrome trace artifacts keyed by request id; wideLog
	// mirrors every wide event to the configured writer (nil discards).
	flight  *obs.FlightRecorder
	traces  *traceStore
	wideLog *obs.WideLog

	// instance is a random token distinguishing this server's generated
	// request IDs from another instance's; reqSeq numbers requests within it.
	instance string
	reqSeq   atomic.Int64

	mu       sync.Mutex
	netlists map[string]*netlistEntry
	order    *list.List // front = most recently used; values are *netlistEntry
	nextID   int

	// Baseline results cached for delta analysis, LRU-bounded like the
	// netlist registry and guarded by the same mutex (netlist eviction
	// must atomically drop the victim's baselines).
	baselines map[string]*baselineEntry
	blOrder   *list.List // front = most recently used; values are *baselineEntry
	nextBID   int
}

// netlistEntry is one uploaded netlist: the circuit compiled (levelized)
// exactly once at upload, reused by every analyze request that names it.
type netlistEntry struct {
	id       string
	compiled *sta.Compiled
	elem     *list.Element
}

// baselineEntry is one cached analysis result, pinned to the netlist handle
// it was computed against.
type baselineEntry struct {
	id        string
	netlistID string
	res       *sta.Result
	elem      *list.Element
}

// New builds a Server over a registry.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("service: Config.Registry is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxNetlists <= 0 {
		cfg.MaxNetlists = 64
	}
	if cfg.MaxBaselines <= 0 {
		cfg.MaxBaselines = 128
	}
	if cfg.TailThreshold == 0 {
		cfg.TailThreshold = 250 * time.Millisecond
	}
	if cfg.MaxRetainedTraces <= 0 {
		cfg.MaxRetainedTraces = 32
	}
	if cfg.TraceEventCap == 0 {
		cfg.TraceEventCap = 8192
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tok := make([]byte, 4)
	rand.Read(tok)
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxInflight),
		log:       logger,
		instance:  hex.EncodeToString(tok),
		netlists:  map[string]*netlistEntry{},
		order:     list.New(),
		baselines: map[string]*baselineEntry{},
		blOrder:   list.New(),
	}
	if cfg.FlightRecorderSize >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorderSize)
		s.traces = newTraceStore(cfg.MaxRetainedTraces)
	}
	s.wideLog = obs.NewWideLog(cfg.WideLog)
	s.mux.HandleFunc("POST /v1/netlists", route(s, "netlists", 64<<20, 1, s.upload))
	s.mux.HandleFunc("POST /v1/analyze", route(s, "analyze", 16<<20, 1, s.analyze))
	s.mux.HandleFunc("POST /v1/analyze:delta", route(s, "analyze:delta", 16<<20, 1, s.analyzeDelta))
	s.mux.HandleFunc("POST /v1/analyze:batch", route(s, "analyze:batch", 64<<20, 1, s.analyzeBatch))
	s.mux.HandleFunc("POST /v1/analyze:mc", route(s, "analyze:mc", 16<<20, selfAdmit, s.analyzeMC))
	s.mux.HandleFunc("POST /v1/explain", route(s, "explain", 16<<20, 1, s.explain))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The debug surface is deliberately outside the request pipeline:
	// reading the black box must work (and leave no record) even when the
	// service is saturated — that is exactly when an operator reaches for it.
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handler returns the service as an http.Handler (identical to the Server
// itself; kept for mounting clarity).
func (s *Server) Handler() http.Handler { return s }

// Metrics exposes the server's counters (for tests and the bench harness).
func (s *Server) Metrics() *Metrics { return s.metrics }

// InFlight reports how many admission tokens are currently held — the
// number a graceful drain is waiting out.
func (s *Server) InFlight() int { return len(s.sem) }

// ---- wire types ------------------------------------------------------------

// Event is one primary-input stimulus on the wire. Times are picoseconds,
// matching the CLI event syntax net:dir:tt_ps:time_ps.
type Event struct {
	Net    string  `json:"net"`
	Dir    string  `json:"dir"` // "rise" | "fall" (single letters accepted)
	TTPs   float64 `json:"ttPs"`
	TimePs float64 `json:"timePs"`
}

// UploadRequest carries a netlist in the text format sta.ParseNetlist reads.
type UploadRequest struct {
	Netlist string `json:"netlist"`
}

// UploadResponse describes the compiled handle.
type UploadResponse struct {
	ID      string   `json:"id"`
	Gates   int      `json:"gates"`
	Levels  int      `json:"levels"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
}

// AnalyzeRequest runs one vector against an uploaded netlist. KeepBaseline
// caches the result server-side and returns a baselineId for
// /v1/analyze:delta queries against it.
type AnalyzeRequest struct {
	Netlist      string  `json:"netlist"`
	Mode         string  `json:"mode,omitempty"` // "prox" (default) | "conv"
	Nets         string  `json:"nets,omitempty"` // "outputs" (default) | "all"
	Vector       []Event `json:"vector"`
	KeepBaseline bool    `json:"keepBaseline,omitempty"`
	// PulseFilter applies the Section-6 inertial-delay model to opposite-edge
	// output pairs: runt pulses below the pair's minimum separation are
	// absorbed, survivors propagate a degraded transition time. Composes with
	// KeepBaseline — /v1/analyze:delta re-judges the edit's fanout under the
	// same filtering and inherits every untouched verdict.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// RemoveEvent names one baseline primary-input event a delta withdraws.
type RemoveEvent struct {
	Net string `json:"net"`
	Dir string `json:"dir"` // "rise" | "fall" (single letters accepted)
}

// DeltaRequest re-times a cached baseline under a stimulus edit: Remove
// withdraws baseline events, Set adds or replaces them (removes apply
// first). The analysis mode is the baseline's. Netlist is optional — when
// present it must match the netlist the baseline was computed against.
// KeepBaseline caches the delta result as a new baseline, so edit chains
// never re-analyze from scratch.
type DeltaRequest struct {
	Netlist      string        `json:"netlist,omitempty"`
	Baseline     string        `json:"baseline"`
	Nets         string        `json:"nets,omitempty"` // "outputs" (default) | "all"
	Set          []Event       `json:"set,omitempty"`
	Remove       []RemoveEvent `json:"remove,omitempty"`
	KeepBaseline bool          `json:"keepBaseline,omitempty"`
	// PulseFilter must state how the baseline was analyzed: filtering is an
	// analysis semantic the delta inherits, so a mismatch is a 4xx rather
	// than a silent re-interpretation of the baseline.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// BatchRequest fans a vector set through AnalyzeBatch.
type BatchRequest struct {
	Netlist string    `json:"netlist"`
	Mode    string    `json:"mode,omitempty"`
	Nets    string    `json:"nets,omitempty"`
	Vectors [][]Event `json:"vectors"`
	// PulseFilter applies Section-6 pulse filtering to every vector.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// Arrival is one reported net transition (picoseconds).
type Arrival struct {
	Net        string  `json:"net"`
	Dir        string  `json:"dir"`
	TimePs     float64 `json:"timePs"`
	TTPs       float64 `json:"ttPs"`
	UsedInputs int     `json:"usedInputs"`
}

// VectorResult is one vector's arrivals plus its workload counters.
// The pulse counters are non-zero only for pulseFilter requests: how many
// opposite-edge output pairs Section-6 filtering absorbed outright, how many
// survived with a degraded transition time, and how many carried no glitch
// model to judge them (propagated untouched — a model-coverage gap).
type VectorResult struct {
	Arrivals       []Arrival `json:"arrivals"`
	GatesEvaluated int       `json:"gatesEvaluated"`
	ProximityEvals int       `json:"proximityEvals"`
	SingleArcEvals int       `json:"singleArcEvals"`
	PulsesFiltered int       `json:"pulsesFiltered,omitempty"`
	PulsesDegraded int       `json:"pulsesDegraded,omitempty"`
	PulsesUnjudged int       `json:"pulsesUnjudged,omitempty"`
}

// AnalyzeResponse answers /v1/analyze. Trace is present only when the
// request asked for ?trace=1: the full Chrome trace_event document for this
// analysis, loadable directly in chrome://tracing or Perfetto.
type AnalyzeResponse struct {
	Mode string `json:"mode"`
	VectorResult
	// BaselineID is present when the request asked keepBaseline: the handle
	// /v1/analyze:delta takes.
	BaselineID string     `json:"baselineId,omitempty"`
	Trace      *obs.Trace `json:"trace,omitempty"`
}

// DeltaResponse answers /v1/analyze:delta. GatesReused/GatesReevaluated
// report how much of the baseline survived the edit — the whole point of
// the endpoint, so it is first-class in the reply.
type DeltaResponse struct {
	Mode string `json:"mode"`
	VectorResult
	GatesReevaluated int        `json:"gatesReevaluated"`
	GatesReused      int        `json:"gatesReused"`
	BaselineID       string     `json:"baselineId,omitempty"`
	Trace            *obs.Trace `json:"trace,omitempty"`
}

// ExplainRequest asks why an analysis produced the arrivals it did on the
// named nets. The vector is re-analyzed (explain is a post-pass over a
// Result; the analysis itself is cheap and cached at the compile level).
type ExplainRequest struct {
	Netlist string   `json:"netlist"`
	Mode    string   `json:"mode,omitempty"`
	Nets    []string `json:"nets"`
	Vector  []Event  `json:"vector"`
	// PulseFilter explains the vector under Section-6 pulse filtering: a
	// filtered or degraded net's story then includes the absorbed
	// opposite-edge pair and its separation margin.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// NetExplainResult is one net's explanation: the structured decision trace
// plus the same human-readable report cmd/sta -explain prints. The engine's
// NetExplain carries live graph pointers (gates reference nets reference
// gates), so the wire shape flattens everything to names and picoseconds.
type NetExplainResult struct {
	Net    string           `json:"net"`
	PI     bool             `json:"pi,omitempty"`
	Gate   string           `json:"gate,omitempty"`
	Type   string           `json:"type,omitempty"`
	Report string           `json:"report"`
	Dirs   []ExplainDirWire `json:"dirs"`
	// Pulse is the Section-6 verdict recorded on this net, when the request
	// asked pulseFilter and filtering absorbed or degraded an opposite-edge
	// pair here.
	Pulse *PulseWire `json:"pulse,omitempty"`
}

// PulseWire is a Section-6 pulse-filtering verdict on the wire: the causing
// pin pair, the observed separation against the pair's inertial delay
// (picoseconds; minSepPs omitted when no characterized separation completes a
// transition), and either filtered=true (pair absorbed, nothing committed) or
// the transition-time degradation applied to the leading edge.
type PulseWire struct {
	FallPin  int     `json:"fallPin"`
	RisePin  int     `json:"risePin"`
	LeadDir  string  `json:"leadDir"`
	SepPs    float64 `json:"sepPs"`
	MinSepPs float64 `json:"minSepPs,omitempty"`
	ExtremeV float64 `json:"extremeV,omitempty"`
	Factor   float64 `json:"factor"`
	Filtered bool    `json:"filtered"`
	// Unjudged marks a runt-pulse-shaped pair the library carries no glitch
	// model for: it propagated untouched (factor 1), and sepPs is the
	// observed output pulse width rather than an input separation.
	Unjudged bool `json:"unjudged,omitempty"`
}

// ExplainDirWire is one explained output direction.
type ExplainDirWire struct {
	Dir     string             `json:"dir"`
	Arrival ExplainArrival     `json:"arrival"`
	Inputs  []ExplainInputWire `json:"inputs,omitempty"`
	// Proximity is the core decision trace (Proximity-mode results): the
	// dominance order, each pairwise absorption with its normalized table
	// coordinates, and every window-pruned input with the reason.
	Proximity *core.Explain `json:"proximity,omitempty"`
	// Arcs is the Conventional-mode story with the winner marked.
	Arcs []ConvArcWire `json:"arcs,omitempty"`
}

// ExplainArrival is an arrival without the engine's graph pointers.
type ExplainArrival struct {
	Dir        string  `json:"dir"`
	TimePs     float64 `json:"timePs"`
	TTPs       float64 `json:"ttPs"`
	FromPin    int     `json:"fromPin"`
	UsedInputs int     `json:"usedInputs"`
}

// ExplainInputWire is one input pin's presented arrival.
type ExplainInputWire struct {
	Pin     int            `json:"pin"`
	Net     string         `json:"net"`
	Arrival ExplainArrival `json:"arrival"`
}

// ConvArcWire is one conventional-mode arc on the wire.
type ConvArcWire struct {
	Pin       int     `json:"pin"`
	Net       string  `json:"net"`
	DelayPs   float64 `json:"delayPs"`
	OutTTPs   float64 `json:"outTtPs"`
	ArrivesPs float64 `json:"arrivesPs"`
	Winner    bool    `json:"winner"`
}

// ExplainResponse answers /v1/explain.
type ExplainResponse struct {
	Mode string             `json:"mode"`
	Nets []NetExplainResult `json:"nets"`
}

// BatchResponse answers /v1/analyze:batch, results indexed like the request
// vectors.
type BatchResponse struct {
	Mode    string         `json:"mode"`
	Results []VectorResult `json:"results"`
}

// MCRequest runs a Monte-Carlo analysis of one vector under process
// variation. Samples is required (1..65536); Sigma is the per-gate
// delay-multiplier standard deviation; Corners optionally names preset
// global corners ("slow", "typ", "fast") evaluated alongside the samples.
type MCRequest struct {
	Netlist string   `json:"netlist"`
	Mode    string   `json:"mode,omitempty"` // "prox" (default) | "conv"
	Vector  []Event  `json:"vector"`
	Samples int      `json:"samples"`
	Seed    uint64   `json:"seed,omitempty"`
	Sigma   float64  `json:"sigma,omitempty"`
	Corners []string `json:"corners,omitempty"`
	Bins    int      `json:"bins,omitempty"` // histogram bins (<= 0 picks 16)
	// PulseFilter applies Section-6 pulse filtering inside every sample and
	// corner; the response then reports glitch criticality — per gate, the
	// probability across samples that its runt pulse was absorbed or
	// propagated degraded.
	PulseFilter bool `json:"pulseFilter,omitempty"`
}

// MCHistWire is one output distribution's fixed-bin histogram (picoseconds).
type MCHistWire struct {
	LoPs   float64 `json:"loPs"`
	HiPs   float64 `json:"hiPs"`
	Counts []int   `json:"counts"`
}

// MCOutputDist is one primary output direction's arrival distribution over
// the samples, all times in picoseconds.
type MCOutputDist struct {
	Net    string      `json:"net"`
	Dir    string      `json:"dir"`
	N      int         `json:"n"` // samples in which this transition occurred
	MeanPs float64     `json:"meanPs"`
	StdPs  float64     `json:"stdPs"`
	MinPs  float64     `json:"minPs"`
	MaxPs  float64     `json:"maxPs"`
	P50Ps  float64     `json:"p50Ps"`
	P95Ps  float64     `json:"p95Ps"`
	P99Ps  float64     `json:"p99Ps"`
	Hist   *MCHistWire `json:"hist,omitempty"`
}

// MCCriticality is one gate's critical-path vote: the fraction of samples
// whose worst-output path ran through it.
type MCCriticality struct {
	Gate        string  `json:"gate"`
	Type        string  `json:"type"`
	Out         string  `json:"out"`
	Count       int     `json:"count"`
	Probability float64 `json:"probability"`
}

// MCGlitchCriticality is one gate's Section-6 verdict distribution over the
// samples: in how many (and what fraction of) samples process variation left
// its opposite-edge pair absorbed versus propagated degraded. Present only
// for pulseFilter requests.
type MCGlitchCriticality struct {
	Gate      string  `json:"gate"`
	Type      string  `json:"type"`
	Out       string  `json:"out"`
	Absorbed  int     `json:"absorbed"`
	Degraded  int     `json:"degraded"`
	PAbsorbed float64 `json:"pAbsorbed"`
	PDegraded float64 `json:"pDegraded"`
}

// MCCornerWire is one corner preset's deterministic arrivals.
type MCCornerWire struct {
	Name       string    `json:"name"`
	Multiplier float64   `json:"multiplier"`
	Arrivals   []Arrival `json:"arrivals"`
}

// MCResponse answers /v1/analyze:mc. The pulse counters sum the Section-6
// verdicts across every sample (corners excluded) for pulseFilter requests.
type MCResponse struct {
	Mode              string                `json:"mode"`
	Samples           int                   `json:"samples"`
	Seed              uint64                `json:"seed"`
	Sigma             float64               `json:"sigma"`
	Outputs           []MCOutputDist        `json:"outputs"`
	Criticality       []MCCriticality       `json:"criticality"`
	GlitchCriticality []MCGlitchCriticality `json:"glitchCriticality,omitempty"`
	Corners           []MCCornerWire        `json:"corners,omitempty"`
	GatesEvaluated    int                   `json:"gatesEvaluated"`
	PulsesFiltered    int                   `json:"pulsesFiltered,omitempty"`
	PulsesDegraded    int                   `json:"pulsesDegraded,omitempty"`
	PulsesUnjudged    int                   `json:"pulsesUnjudged,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- request pipeline ------------------------------------------------------

// statusWriter captures the response code for the wide event. A response
// written without an explicit WriteHeader is an implicit 200 — that must be
// recorded on the first Write, not left at the zero value (which would skew
// the per-class status counters and latency-by-status), and a later
// out-of-order WriteHeader must not overwrite it (net/http ignores the
// second header, so the metrics must too). For error responses the leading
// body bytes are kept, so the wide event can say what the client was
// actually told.
type statusWriter struct {
	http.ResponseWriter
	status  int // 0 until the response commits a status
	errBody []byte
}

// errBodyCap bounds the error-body prefix retained per request.
const errBodyCap = 256

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 400 && len(w.errBody) < errBodyCap {
		take := errBodyCap - len(w.errBody)
		if take > len(b) {
			take = len(b)
		}
		w.errBody = append(w.errBody, b[:take]...)
	}
	return w.ResponseWriter.Write(b)
}

// reqState is one request's pass through the pipeline: its always-on span
// recorder, the wide event every stage fills in as it learns its part, and
// the admission it holds. The request's own goroutine owns it.
type reqState struct {
	tr         *obs.Trace // nil when the flight recorder is disabled and ?trace=1 absent
	forceTrace bool       // ?trace=1: inline trace in the response + unconditional retention
	wide       obs.WideEvent
	exit       func() // returns what enter granted; nil until admitted
}

// inlineTrace is the trace a ?trace=1 response embeds (nil otherwise).
func (st *reqState) inlineTrace() *obs.Trace {
	if st.forceTrace {
		return st.tr
	}
	return nil
}

// noteStats reports one engine analysis: its counters and phase breakdown
// join the request's wide event (a batch reports once per vector), and the
// phases it ran join the per-analysis phase histograms. Every Result an
// endpoint computes is reported here and nowhere else.
func (s *Server) noteStats(st *reqState, stats *sta.Stats) {
	w := &st.wide
	w.Vectors++
	w.GatesScheduled += stats.GatesScheduled
	w.GatesEvaluated += stats.GatesEvaluated
	w.GatesReused += stats.GatesReused
	w.GatesReevaluated += stats.GatesReevaluated
	w.ProximityEvals += stats.ProximityEvals
	w.SingleArcEvals += stats.SingleArcEvals
	w.PulsesFiltered += stats.PulsesFiltered
	w.PulsesDegraded += stats.PulsesDegraded
	w.PulsesUnjudged += stats.PulsesUnjudged
	for _, p := range obs.Phases() {
		w.Phases.Add(p, stats.Phases[p])
	}
	s.metrics.observePhases(stats.Phases)
}

// options is the engine configuration every analysis of a request runs
// under.
func (s *Server) options(st *reqState, pulseFilter bool) sta.Options {
	return sta.Options{Workers: s.cfg.Workers, PulseFiltering: pulseFilter, Trace: st.tr}
}

// selfAdmit is the route weight of an endpoint that admits itself: its cost
// is declared in the body, so it calls enter after validating the request.
const selfAdmit = 0

// route mounts one POST endpoint on the request pipeline. The pipeline gives
// every request its identity, its admission, a body decoded into Req (at most
// limit bytes) and the written response or failure; run supplies only the
// engine call and the response shape. Unit-weight endpoints are admitted
// before the body is read.
func route[Req any](s *Server, name string, limit int64, weight int,
	run func(context.Context, *reqState, *Req) (any, error)) http.HandlerFunc {
	return s.pipeline(name, weight, func(ctx context.Context, st *reqState, w http.ResponseWriter, r *http.Request) (any, error) {
		var req Req
		if err := decodeBody(w, r, &req, limit); err != nil {
			return nil, fmt.Errorf("bad request body: %v", err)
		}
		return run(ctx, st, &req)
	})
}

// pipeline is the part of route that does not depend on the body type. Once
// the answer is written, the finished wide event feeds the flight recorder,
// /metrics and the request log line: one record, three readers.
func (s *Server) pipeline(name string, weight int,
	run func(context.Context, *reqState, http.ResponseWriter, *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := s.begin(w, r, name)
		sw := &statusWriter{ResponseWriter: w}
		s.respond(sw, r, st, weight, run)
		ev := s.finishRequest(st, sw)
		s.metrics.record(&ev)
		s.log.Info("request", "id", ev.ID, "traceId", ev.TraceID, "endpoint", name,
			"method", ev.Method, "path", ev.Path,
			"status", ev.Status, "durMs", float64(ev.Wall.Microseconds())/1e3,
			"gatesEvaluated", ev.GatesEvaluated,
			"pulsesFiltered", ev.PulsesFiltered, "pulsesDegraded", ev.PulsesDegraded,
			"mcSamples", ev.MCSamples,
			"admissionWaitMs", float64(ev.AdmissionWait.Microseconds())/1e3)
	}
}

// begin gives a request its identity — the X-Request-Id and the W3C trace
// context, each honored or minted and echoed in the response headers — and
// its always-on bounded span recorder.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, name string) *reqState {
	start := time.Now()
	id := s.requestID(r)
	tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if ok {
		// Same trace id as the caller, our own span id downstream.
		tc = tc.Child()
	} else {
		tc = obs.NewTraceContext()
	}
	w.Header().Set("X-Request-Id", id)
	w.Header().Set("traceparent", tc.Header())
	st := &reqState{forceTrace: wantTrace(r), wide: obs.WideEvent{
		ID: id, TraceID: tc.TraceID, Endpoint: name,
		Method: r.Method, Path: r.URL.Path, Start: start,
	}}
	if s.flight != nil || st.forceTrace {
		st.tr = obs.NewBoundedTrace(s.cfg.TraceEventCap)
		// Fine-grained (per-level, per-worker) spans only when the caller
		// asked for the trace: the passive tail-sampling recorder rides
		// along on every request and must stay cheap.
		st.tr.SetDetail(st.forceTrace)
		st.tr.SetTraceID(tc.TraceID)
	}
	return st
}

// respond admits the request (unless it admits itself), runs it and writes
// its answer. What enter granted is returned only after the answer is
// written.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, st *reqState, weight int,
	run func(context.Context, *reqState, http.ResponseWriter, *http.Request) (any, error)) {
	defer func() {
		if st.exit != nil {
			st.exit()
		}
	}()
	ctx, err := r.Context(), error(nil)
	if weight != selfAdmit {
		ctx, err = s.enter(ctx, st, weight)
	}
	var resp any
	if err == nil {
		resp, err = run(ctx, st, w, r)
	}
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, resp)
}

// enter non-blockingly takes weight admission tokens for the request and
// starts its deadline. A server at capacity answers 429 at once — bounded
// latency beats an unbounded queue.
func (s *Server) enter(ctx context.Context, st *reqState, weight int) (context.Context, error) {
	t0 := time.Now()
	admitted := s.admit(weight)
	st.wide.AdmissionWait = time.Since(t0)
	if !admitted {
		s.log.Warn("request rejected", "id", st.wide.ID, "endpoint", st.wide.Endpoint,
			"method", st.wide.Method, "path", st.wide.Path,
			"status", http.StatusTooManyRequests, "weight", weight, "maxInflight", s.cfg.MaxInflight)
		return nil, &statusError{http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d admission tokens); retry", s.cfg.MaxInflight)}
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	st.exit = func() {
		cancel()
		s.release(weight)
	}
	return ctx, nil
}

// admit non-blockingly acquires weight admission tokens. On failure it rolls
// back the partial acquisition and reports false — a heavy request never
// deadlocks against another heavy request by holding half its tokens.
func (s *Server) admit(weight int) bool {
	for i := 0; i < weight; i++ {
		select {
		case s.sem <- struct{}{}:
		default:
			for ; i > 0; i-- {
				<-s.sem
			}
			return false
		}
	}
	return true
}

// release returns weight admission tokens.
func (s *Server) release(weight int) {
	for i := 0; i < weight; i++ {
		<-s.sem
	}
}

// requestID honors a caller-supplied X-Request-Id (so IDs correlate across
// a proxy chain) and otherwise mints one from the instance token plus a
// per-server sequence number.
func (s *Server) requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" && len(id) <= 128 {
		return id
	}
	return s.instance + "-" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}

// statusError is a failure answered with its own status: 404 for an unknown
// handle, 429 for a refused admission.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func notFound(format string, args ...any) error {
	return &statusError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

// StatusClientClosedRequest is the nginx convention for "the client went
// away before the response": not a timeout (the server had budget left),
// not a client syntax error — its own class, so p99 and timeout alerting
// stay clean when callers hang up mid-analyze.
const StatusClientClosedRequest = 499

// writeFailure answers a failed request. A statusError carries its own
// status (a 429 adds a Retry-After hint). Otherwise the request deadline
// expiring is a 504, the client disconnecting (request context canceled) a
// 499, and everything else — bad bodies, nets, events, netlists, missing
// dual models — a 400: all are properties of the request or the uploaded
// artifacts, not of the server.
func writeFailure(w http.ResponseWriter, err error) {
	var se *statusError
	switch {
	case errors.As(err, &se):
		if se.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, se.status, "%s", se.msg)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "analysis timed out: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, "analysis canceled by client: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body with a size cap; analyze bodies
// are small, netlists can be large but bounded. The body must be exactly
// one JSON document: trailing garbage (`{"netlist":"n1"}{"junk":1}`) is an
// error, not silently ignored half-read.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// ---- endpoints -------------------------------------------------------------

// upload parses and levelizes a netlist once, caching the compiled handle.
// Every cell type the netlist references is resolved through the registry —
// the first upload of a library pays the model loads, later uploads and
// every analyze hit the cache.
func (s *Server) upload(_ context.Context, st *reqState, req *UploadRequest) (any, error) {
	if strings.TrimSpace(req.Netlist) == "" {
		return nil, errors.New("empty netlist")
	}
	lib := sta.NewLibrary()
	for _, typ := range scanGateTypes(req.Netlist) {
		calc, err := s.cfg.Registry.Get(typ)
		if err != nil {
			// The registry error names the model file; the client learns
			// only which cell failed, the log keeps where.
			s.log.Warn("cell model unavailable", "id", st.wide.ID, "cell", typ, "err", err)
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("cell %q: no model in the library", typ)
			}
			return nil, fmt.Errorf("cell %q: model failed to load", typ)
		}
		lib.Add(typ, calc)
	}
	c, err := sta.ParseNetlist(strings.NewReader(req.Netlist), lib)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	compiled, err := c.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile: %v", err)
	}

	s.mu.Lock()
	s.nextID++
	e := &netlistEntry{id: fmt.Sprintf("n%d", s.nextID), compiled: compiled}
	e.elem = s.order.PushFront(e)
	s.netlists[e.id] = e
	for s.order.Len() > s.cfg.MaxNetlists {
		back := s.order.Back()
		victim := back.Value.(*netlistEntry)
		s.order.Remove(back)
		delete(s.netlists, victim.id)
		s.dropBaselinesLocked(victim.id)
	}
	s.mu.Unlock()

	// The upload's wide event names the handle it created.
	st.wide.Netlist, st.wide.CacheHit = e.id, true

	// Empty slices marshal as [] rather than null — clients iterating the
	// field must never have to special-case a missing array.
	resp := UploadResponse{
		ID:      e.id,
		Gates:   compiled.NumGates(),
		Levels:  compiled.NumLevels(),
		Inputs:  make([]string, 0, len(c.PIs)),
		Outputs: make([]string, 0, len(c.POs)),
	}
	for _, pi := range c.PIs {
		resp.Inputs = append(resp.Inputs, pi.Name)
	}
	for _, po := range c.POs {
		resp.Outputs = append(resp.Outputs, po.Name)
	}
	return resp, nil
}

// lookupNetlist returns the compiled handle for an id, refreshing its LRU
// position.
func (s *Server) lookupNetlist(id string) (*sta.Compiled, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.netlists[id]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(e.elem)
	return e.compiled, true
}

// target resolves the netlist handle and analysis mode a request names,
// noting the handle and whether it was resident on the wide event.
func (s *Server) target(st *reqState, id, mode string) (*sta.Compiled, sta.Mode, error) {
	compiled, ok := s.lookupNetlist(id)
	st.wide.Netlist, st.wide.CacheHit = id, ok
	if !ok {
		return nil, 0, notFound("unknown netlist %q (expired or never uploaded)", id)
	}
	m, err := parseMode(mode)
	return compiled, m, err
}

// dropBaselinesLocked removes every baseline pinned to an evicted netlist.
// Caller holds s.mu.
func (s *Server) dropBaselinesLocked(netlistID string) {
	for id, b := range s.baselines {
		if b.netlistID == netlistID {
			s.blOrder.Remove(b.elem)
			delete(s.baselines, id)
		}
	}
}

// storeBaseline caches an analysis result for later delta queries and
// returns its handle, evicting the least recently used baseline beyond the
// configured bound.
func (s *Server) storeBaseline(netlistID string, res *sta.Result) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextBID++
	b := &baselineEntry{id: fmt.Sprintf("b%d", s.nextBID), netlistID: netlistID, res: res}
	b.elem = s.blOrder.PushFront(b)
	s.baselines[b.id] = b
	for s.blOrder.Len() > s.cfg.MaxBaselines {
		back := s.blOrder.Back()
		victim := back.Value.(*baselineEntry)
		s.blOrder.Remove(back)
		delete(s.baselines, victim.id)
	}
	return b.id
}

// lookupBaseline returns a cached baseline, refreshing its LRU position.
func (s *Server) lookupBaseline(id string) (*baselineEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.baselines[id]
	if !ok {
		return nil, false
	}
	s.blOrder.MoveToFront(b.elem)
	return b, true
}

func (s *Server) analyze(ctx context.Context, st *reqState, req *AnalyzeRequest) (any, error) {
	compiled, mode, err := s.target(st, req.Netlist, req.Mode)
	if err != nil {
		return nil, err
	}
	nets, err := parseNets(req.Nets)
	if err != nil {
		return nil, err
	}
	evs, err := resolveVector(compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	res, err := compiled.Analyze(ctx, evs, mode, s.options(st, req.PulseFilter))
	if err != nil {
		return nil, err
	}
	s.noteStats(st, &res.Stats)
	resp := AnalyzeResponse{Mode: mode.String(), Trace: st.inlineTrace(),
		VectorResult: buildVectorResult(compiled.Circuit(), res, nets)}
	if req.KeepBaseline {
		resp.BaselineID = s.storeBaseline(req.Netlist, res)
	}
	return resp, nil
}

// analyzeDelta re-times a cached baseline under a stimulus edit via the
// engine's delta propagation: only gates the edit can actually reach are
// re-evaluated, everything else keeps its baseline arrival bit for bit.
func (s *Server) analyzeDelta(ctx context.Context, st *reqState, req *DeltaRequest) (any, error) {
	bl, ok := s.lookupBaseline(req.Baseline)
	if !ok {
		return nil, notFound("unknown baseline %q (expired or never kept)", req.Baseline)
	}
	if req.Netlist != "" && req.Netlist != bl.netlistID {
		return nil, fmt.Errorf("baseline %q belongs to netlist %q, not %q",
			req.Baseline, bl.netlistID, req.Netlist)
	}
	compiled, ok := s.lookupNetlist(bl.netlistID)
	st.wide.Netlist, st.wide.CacheHit = bl.netlistID, ok
	if !ok {
		// The netlist was evicted between the two lookups; its baselines
		// are gone with it, the client re-uploads and re-baselines.
		return nil, notFound("netlist %q behind baseline %q expired", bl.netlistID, req.Baseline)
	}
	nets, err := parseNets(req.Nets)
	if err != nil {
		return nil, err
	}
	delta, err := resolveDelta(compiled.Circuit(), req.Set, req.Remove)
	if err != nil {
		return nil, err
	}
	res, err := compiled.AnalyzeDelta(ctx, bl.res, delta, s.options(st, req.PulseFilter))
	if err != nil {
		return nil, err
	}
	s.noteStats(st, &res.Stats)
	resp := DeltaResponse{
		Mode:             res.Mode.String(),
		VectorResult:     buildVectorResult(compiled.Circuit(), res, nets),
		GatesReevaluated: res.Stats.GatesReevaluated,
		GatesReused:      res.Stats.GatesReused,
		Trace:            st.inlineTrace(),
	}
	if req.KeepBaseline {
		resp.BaselineID = s.storeBaseline(bl.netlistID, res)
	}
	return resp, nil
}

// wantTrace reports whether the request opted into span recording.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// explain re-analyzes one vector and returns the decision trace for each
// requested net: dominance order, pairwise absorptions, window prunes
// (Proximity mode) or per-arc delays with the winner marked (Conventional).
func (s *Server) explain(ctx context.Context, st *reqState, req *ExplainRequest) (any, error) {
	if len(req.Nets) == 0 {
		return nil, errors.New("no nets requested")
	}
	compiled, mode, err := s.target(st, req.Netlist, req.Mode)
	if err != nil {
		return nil, err
	}
	evs, err := resolveVector(compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	res, err := compiled.Analyze(ctx, evs, mode, s.options(st, req.PulseFilter))
	if err != nil {
		return nil, err
	}
	s.noteStats(st, &res.Stats)
	nes, err := sta.ExplainNets(compiled.Circuit(), res, req.Nets)
	if err != nil {
		return nil, err
	}
	resp := ExplainResponse{Mode: mode.String(), Nets: make([]NetExplainResult, len(nes))}
	for i, ne := range nes {
		resp.Nets[i] = netExplainWire(ne)
	}
	return resp, nil
}

func wireArrival(a sta.Arrival) ExplainArrival {
	return ExplainArrival{
		Dir: a.Dir.String(), TimePs: a.Time * 1e12, TTPs: a.TT * 1e12,
		FromPin: a.FromPin, UsedInputs: a.UsedInputs,
	}
}

// netExplainWire flattens an engine explanation onto the wire shape.
func netExplainWire(ne *sta.NetExplain) NetExplainResult {
	var sb strings.Builder
	ne.Format(&sb)
	out := NetExplainResult{
		Net: ne.Net, PI: ne.PI, Gate: ne.Gate, Type: ne.Type,
		Report: sb.String(), Dirs: []ExplainDirWire{},
	}
	if p := ne.Pulse; p != nil {
		pw := &PulseWire{
			FallPin: p.FallPin, RisePin: p.RisePin, LeadDir: p.LeadDir.String(),
			SepPs: p.Sep * 1e12, Factor: p.Factor, Filtered: p.Filtered, Unjudged: p.Unjudged,
		}
		if p.MinSepOK {
			pw.MinSepPs = p.MinSep * 1e12
		}
		if !p.Filtered && !p.Unjudged {
			pw.ExtremeV = p.Extreme
		}
		out.Pulse = pw
	}
	for _, de := range ne.Dirs {
		dw := ExplainDirWire{Dir: de.Dir.String(), Arrival: wireArrival(de.Arrival), Proximity: de.Proximity}
		for _, in := range de.Inputs {
			dw.Inputs = append(dw.Inputs, ExplainInputWire{Pin: in.Pin, Net: in.Net, Arrival: wireArrival(in.Arrival)})
		}
		for _, arc := range de.Arcs {
			dw.Arcs = append(dw.Arcs, ConvArcWire{
				Pin: arc.Pin, Net: arc.Net, DelayPs: arc.Delay * 1e12,
				OutTTPs: arc.OutTT * 1e12, ArrivesPs: arc.Arrives * 1e12, Winner: arc.Winner,
			})
		}
		out.Dirs = append(out.Dirs, dw)
	}
	return out
}

func (s *Server) analyzeBatch(ctx context.Context, st *reqState, req *BatchRequest) (any, error) {
	if len(req.Vectors) == 0 {
		return nil, errors.New("empty vector set")
	}
	compiled, mode, err := s.target(st, req.Netlist, req.Mode)
	if err != nil {
		return nil, err
	}
	nets, err := parseNets(req.Nets)
	if err != nil {
		return nil, err
	}
	batch := make([][]sta.PIEvent, len(req.Vectors))
	for i, vec := range req.Vectors {
		if batch[i], err = resolveVector(compiled.Circuit(), vec); err != nil {
			return nil, fmt.Errorf("vector %d: %v", i, err)
		}
	}
	results, err := compiled.AnalyzeBatch(ctx, batch, mode, s.options(st, req.PulseFilter))
	if err != nil {
		return nil, err
	}
	resp := BatchResponse{Mode: mode.String(), Results: make([]VectorResult, len(results))}
	for i, res := range results {
		s.noteStats(st, &res.Stats)
		resp.Results[i] = buildVectorResult(compiled.Circuit(), res, nets)
	}
	return resp, nil
}

// maxMCSamples bounds a single Monte-Carlo request; beyond it the caller
// splits the run across requests (seeds compose: samples are pure functions
// of (seed, index), so two 32k-sample runs with distinct seeds are one 64k
// population).
const maxMCSamples = 65536

// mcSamplesPerToken converts a sample count into admission weight: every
// 256 samples cost one token beyond the base, so one 64-token server admits
// e.g. four 4096-sample runs or one 16k-sample run plus interactive traffic,
// instead of 64 concurrent 16k-sample runs.
const mcSamplesPerToken = 256

// mcWeight is the admission cost of a Monte-Carlo request, capped at the
// full semaphore so a maximal request remains admissible on an idle server.
func (s *Server) mcWeight(samples int) int {
	w := 1 + samples/mcSamplesPerToken
	if w > s.cfg.MaxInflight {
		w = s.cfg.MaxInflight
	}
	return w
}

// analyzeMC runs a Monte-Carlo analysis. It admits itself: validation and
// resolution come first (a malformed request should not consume capacity),
// and the admission weight scales with the declared sample count, because
// one 16k-sample request costs as much compute as thousands of plain
// analyzes.
func (s *Server) analyzeMC(ctx context.Context, st *reqState, req *MCRequest) (any, error) {
	switch {
	case req.Samples <= 0:
		return nil, fmt.Errorf("samples must be positive (got %d)", req.Samples)
	case req.Samples > maxMCSamples:
		return nil, fmt.Errorf("samples must be at most %d (got %d); split larger runs across seeds",
			maxMCSamples, req.Samples)
	case req.Sigma < 0:
		return nil, fmt.Errorf("sigma must be non-negative (got %v)", req.Sigma)
	case req.Bins < 0:
		return nil, fmt.Errorf("bins must be non-negative (got %d)", req.Bins)
	}
	compiled, mode, err := s.target(st, req.Netlist, req.Mode)
	if err != nil {
		return nil, err
	}
	evs, err := resolveVector(compiled.Circuit(), req.Vector)
	if err != nil {
		return nil, err
	}
	if ctx, err = s.enter(ctx, st, s.mcWeight(req.Samples)); err != nil {
		return nil, err
	}
	res, err := compiled.AnalyzeMC(ctx, evs, mode, sta.MCOptions{
		Samples: req.Samples, Seed: req.Seed, Sigma: req.Sigma,
		Corners: req.Corners, Bins: req.Bins,
		Options: s.options(st, req.PulseFilter),
	})
	if err != nil {
		return nil, err
	}
	s.noteStats(st, &res.Stats)
	st.wide.MCSamples += res.Samples

	resp := MCResponse{
		Mode: res.Mode.String(), Samples: res.Samples, Seed: res.Seed, Sigma: res.Sigma,
		Outputs:        make([]MCOutputDist, 0, len(res.Outputs)),
		Criticality:    make([]MCCriticality, 0, len(res.Criticality)),
		GatesEvaluated: res.Stats.GatesEvaluated,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	for _, od := range res.Outputs {
		wd := MCOutputDist{
			Net: od.Net.Name, Dir: od.Dir.String(), N: od.Dist.N,
			MeanPs: od.Dist.Mean * 1e12, StdPs: od.Dist.Std * 1e12,
			MinPs: od.Dist.Min * 1e12, MaxPs: od.Dist.Max * 1e12,
			P50Ps: od.Dist.P50 * 1e12, P95Ps: od.Dist.P95 * 1e12, P99Ps: od.Dist.P99 * 1e12,
		}
		if h := od.Dist.Hist; h != nil {
			wd.Hist = &MCHistWire{LoPs: h.Lo * 1e12, HiPs: h.Hi * 1e12, Counts: h.Counts}
		}
		resp.Outputs = append(resp.Outputs, wd)
	}
	for _, gc := range res.Criticality {
		resp.Criticality = append(resp.Criticality, MCCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name,
			Count: gc.Count, Probability: gc.Probability,
		})
	}
	for _, gc := range res.GlitchCriticality {
		resp.GlitchCriticality = append(resp.GlitchCriticality, MCGlitchCriticality{
			Gate: gc.Gate.Name, Type: gc.Gate.Type, Out: gc.Gate.Out.Name,
			Absorbed: gc.Absorbed, Degraded: gc.Degraded,
			PAbsorbed: gc.PAbsorbed, PDegraded: gc.PDegraded,
		})
	}
	for _, cr := range res.Corners {
		vr := buildVectorResult(compiled.Circuit(), cr.Result, netsOutputs)
		resp.Corners = append(resp.Corners, MCCornerWire{
			Name: cr.Name, Multiplier: cr.Multiplier, Arrivals: vr.Arrivals,
		})
	}
	return resp, nil
}

// handleHealthz answers liveness plus occupancy: how full each LRU cache is
// and how much of the admission budget is committed — the numbers a load
// balancer or operator reads before deciding where the pressure is.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := s.order.Len()
	b := s.blOrder.Len()
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"status":       "ok",
		"netlists":     n,
		"maxNetlists":  s.cfg.MaxNetlists,
		"baselines":    b,
		"maxBaselines": s.cfg.MaxBaselines,
		"models":       s.cfg.Registry.Stats().Resident,
		"inFlight":     len(s.sem),
		"maxInflight":  s.cfg.MaxInflight,
		// Black-box occupancy: how full the wide-event ring is and how many
		// tail-sampled trace artifacts are currently retained.
		"flightEvents":      s.flight.Len(),
		"flightCap":         s.flight.Cap(),
		"retainedTraces":    s.traces.len(),
		"maxRetainedTraces": s.cfg.MaxRetainedTraces,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := s.order.Len()
	s.mu.Unlock()
	var b strings.Builder
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.metrics.writeJSON(&b, s.cfg.Registry.Stats(), n)
		w.Header().Set("Content-Type", "application/json")
	case "prom", "prometheus":
		s.metrics.writeProm(&b, s.cfg.Registry.Stats(), n)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format %q (want json or prom)", format)
		return
	}
	w.Write([]byte(b.String()))
}

// ---- request helpers -------------------------------------------------------

// scanGateTypes extracts the distinct cell types a netlist references, in
// first-use order, without building a circuit — the registry must resolve
// them before parsing can start.
func scanGateTypes(netlist string) []string {
	seen := map[string]bool{}
	var types []string
	for _, line := range strings.Split(netlist, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == "gate" && !seen[f[2]] {
			seen[f[2]] = true
			types = append(types, f[2])
		}
	}
	return types
}

func parseMode(s string) (sta.Mode, error) {
	switch s {
	case "", "prox", "proximity":
		return sta.Proximity, nil
	case "conv", "conventional":
		return sta.Conventional, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want prox or conv)", s)
}

// parseNets validates the report-scope selector with the same strictness
// parseMode applies: a typo like "al" is a 400 naming the bad value, never
// silently treated as the default.
func parseNets(s string) (netScope, error) {
	switch s {
	case "", "outputs":
		return netsOutputs, nil
	case "all":
		return netsAll, nil
	}
	return netsOutputs, fmt.Errorf("unknown nets %q (want outputs or all)", s)
}

// netScope selects which nets an analysis response reports.
type netScope int

const (
	netsOutputs netScope = iota
	netsAll
)

func parseDir(s string) (waveform.Direction, error) {
	switch s {
	case "rise", "r", "rising":
		return waveform.Rising, nil
	case "fall", "f", "falling":
		return waveform.Falling, nil
	}
	return 0, fmt.Errorf("bad direction %q (want rise or fall)", s)
}

// resolveVector maps a stimulus vector onto circuit nets. PI membership,
// positive transition times and duplicate events are enforced by the engine
// itself.
func resolveVector(c *sta.Circuit, vec []Event) ([]sta.PIEvent, error) {
	if len(vec) == 0 {
		return nil, fmt.Errorf("empty stimulus vector")
	}
	return resolveEvents(c, "event", vec)
}

// resolveDelta maps a wire stimulus edit onto circuit nets. PI membership,
// event validity, duplicates, the present-in-baseline requirement for
// removes and the rejection of an empty edit are enforced by the engine.
func resolveDelta(c *sta.Circuit, set []Event, remove []RemoveEvent) (sta.Delta, error) {
	var delta sta.Delta
	if len(set) > 0 {
		evs, err := resolveEvents(c, "set", set)
		if err != nil {
			return sta.Delta{}, err
		}
		delta.Set = evs
	}
	for i, rm := range remove {
		n, dir, err := resolvePin(c, "remove", i, rm.Net, rm.Dir)
		if err != nil {
			return sta.Delta{}, err
		}
		delta.Remove = append(delta.Remove, sta.DeltaRemove{Net: n, Dir: dir})
	}
	return delta, nil
}

// resolveEvents maps wire events onto circuit nets; kind names the list in
// error messages.
func resolveEvents(c *sta.Circuit, kind string, vec []Event) ([]sta.PIEvent, error) {
	evs := make([]sta.PIEvent, len(vec))
	for i, ev := range vec {
		n, dir, err := resolvePin(c, kind, i, ev.Net, ev.Dir)
		if err != nil {
			return nil, err
		}
		evs[i] = sta.PIEvent{Net: n, Dir: dir, TT: ev.TTPs * 1e-12, Time: ev.TimePs * 1e-12}
	}
	return evs, nil
}

// resolvePin resolves entry i of a wire event list: unknown nets and bad
// directions fail here with the entry and the net named.
func resolvePin(c *sta.Circuit, kind string, i int, net, dir string) (*sta.Net, waveform.Direction, error) {
	n := c.Net(net)
	if n == nil {
		return nil, 0, fmt.Errorf("%s %d: unknown net %q", kind, i, net)
	}
	d, err := parseDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %d (net %s): %v", kind, i, net, err)
	}
	return n, d, nil
}

// buildVectorResult flattens a Result into wire arrivals: primary outputs
// by default, every net when nets == all. Arrivals are listed in
// deterministic order (output declaration order, or sorted net names) and
// marshal as [] rather than null when empty.
func buildVectorResult(c *sta.Circuit, res *sta.Result, nets netScope) VectorResult {
	vr := VectorResult{
		Arrivals:       []Arrival{},
		GatesEvaluated: res.Stats.GatesEvaluated,
		ProximityEvals: res.Stats.ProximityEvals,
		SingleArcEvals: res.Stats.SingleArcEvals,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	appendNet := func(n *sta.Net) {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			if a, ok := res.Arrival(n, dir); ok {
				vr.Arrivals = append(vr.Arrivals, Arrival{
					Net:        n.Name,
					Dir:        dir.String(),
					TimePs:     a.Time * 1e12,
					TTPs:       a.TT * 1e12,
					UsedInputs: a.UsedInputs,
				})
			}
		}
	}
	if nets == netsAll {
		for _, name := range c.NetsByName() {
			appendNet(c.Net(name))
		}
	} else {
		for _, po := range c.POs {
			appendNet(po)
		}
	}
	return vr
}
