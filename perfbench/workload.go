package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/macromodel"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Workload shapes. The netlist sizes follow the repository's reference
// benches: the 4000-gate, 65-level random DAG of `stad -bench` and the
// 240-tile, 12k-gate block-partitioned netlist of the delta and glitch
// benches.
const (
	batchVectors   = 32 // vectors per batch-full request
	batchPool      = 4  // distinct batch-full requests
	ecoPool        = 128
	runtVectors    = 2 // vectors per runt-filter request
	runtPool       = 16
	runtWindowStep = 40e-12 // 5 steps: every PI fires inside 0..160 ps
)

var workloadNames = []string{"batch-full", "eco-tiled", "runt-filter"}

type reqKind int

const (
	kindBatch reqKind = iota
	kindAnalyze
	kindDelta
)

// request is one distinct request of a workload's pool: its stimulus, the
// serial in-process reference answer, and that answer encoded exactly as
// the service encodes a response.
type request struct {
	kind    reqKind
	vectors [][]service.Event // batch: every vector; analyze: one vector
	set     []service.Event   // delta: the single-PI edit

	want       []service.VectorResult
	reevaluate int // delta: reference GatesReevaluated
	reused     int // delta: reference GatesReused
	expect     []byte

	body []byte // filled by bind once set-up has assigned handle ids
}

func (r *request) path() string {
	switch r.kind {
	case kindBatch:
		return "/v1/analyze:batch"
	case kindDelta:
		return "/v1/analyze:delta"
	}
	return "/v1/analyze"
}

func (r *request) numVectors() int {
	if r.kind == kindBatch {
		return len(r.vectors)
	}
	return 1
}

// workload is a generated netlist plus its request pool. The seed decides
// everything; stad sees only the netlist text and the encoded requests.
type workload struct {
	netlist  string
	pulse    bool
	baseline []service.Event // eco-tiled: the full vector kept as delta baseline during set-up
	reqs     []*request
	// step is how many consecutive pool requests a client sends as one
	// operation, whose latency is one sample: 1, or 2 on eco-tiled, where
	// an ECO step is a delta then a tile-local analyze. A latency
	// percentile over the two kinds mixed 1:1 would fall between their
	// latency modes, where it swings with the slightest shift.
	step int

	// compiled is the netlist parsed over the same on-disk library stad
	// loads, so in-process reference and engine-alone runs see identical
	// models; baseRes is the serial reference baseline (eco-tiled only).
	compiled *sta.Compiled
	baseRes  *sta.Result
}

// writeLibrary writes the synthetic inv/nand2/nand3 cell library in the
// charz JSON format stad serves from.
func writeLibrary(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cell := range []struct {
		name, kind string
		n          int
	}{{"inv", "inv", 1}, {"nand2", "nand", 2}, {"nand3", "nand", 3}} {
		if err := macromodel.SynthModel(cell.kind, cell.n).Save(filepath.Join(dir, cell.name+".json")); err != nil {
			return fmt.Errorf("write library: %w", err)
		}
	}
	return nil
}

// generate builds the named workload's netlist and request pool from seed.
func generate(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{step: 1}
	var c *sta.Circuit
	var err error
	switch name {
	case "batch-full":
		if c, err = sta.SynthRandom(64, 4000, seed); err != nil {
			return nil, err
		}
		for i := 0; i < batchPool; i++ {
			r := &request{kind: kindBatch}
			for v := 0; v < batchVectors; v++ {
				r.vectors = append(r.vectors, wire(sta.SynthEvents(c, rng.Int63())))
			}
			w.reqs = append(w.reqs, r)
		}
	case "eco-tiled":
		if c, err = sta.SynthTiled(240, 8, 50, seed); err != nil {
			return nil, err
		}
		w.baseline = wire(sta.SynthEvents(c, rng.Int63()))
		w.step = 2
		for i := 0; i < ecoPool; i++ {
			if i%2 == 0 {
				pi := c.PIs[rng.Intn(len(c.PIs))]
				w.reqs = append(w.reqs, &request{kind: kindDelta,
					set: wire(sta.SynthEventsFor([]*sta.Net{pi}, rng.Int63()))})
				continue
			}
			tile := sta.TilePIs(c, rng.Intn(240))
			w.reqs = append(w.reqs, &request{kind: kindAnalyze,
				vectors: [][]service.Event{wire(sta.SynthEventsFor(tile, rng.Int63()))}})
		}
	case "runt-filter":
		if c, err = sta.SynthTiled(240, 8, 50, seed); err != nil {
			return nil, err
		}
		w.pulse = true
		for i := 0; i < runtPool; i++ {
			r := &request{kind: kindBatch}
			for v := 0; v < runtVectors; v++ {
				evs := sta.SynthEventsFor(c.PIs, rng.Int63())
				for k := range evs {
					evs[k].Time = float64(k%5) * runtWindowStep
					evs[k].Dir = waveform.Rising
					if k%2 == 1 {
						evs[k].Dir = waveform.Falling
					}
				}
				r.vectors = append(r.vectors, wire(evs))
			}
			w.reqs = append(w.reqs, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	var text strings.Builder
	if err := sta.WriteNetlist(&text, c); err != nil {
		return nil, err
	}
	w.netlist = text.String()
	return w, nil
}

// wire converts engine events to the service's picosecond wire events.
func wire(evs []sta.PIEvent) []service.Event {
	out := make([]service.Event, len(evs))
	for i, ev := range evs {
		dir := "rise"
		if ev.Dir == waveform.Falling {
			dir = "fall"
		}
		out[i] = service.Event{Net: ev.Net.Name, Dir: dir, TTPs: ev.TT * 1e12, TimePs: ev.Time * 1e12}
	}
	return out
}

// resolve maps wire events onto the circuit exactly as the service does.
func resolve(c *sta.Circuit, vec []service.Event) ([]sta.PIEvent, error) {
	evs := make([]sta.PIEvent, len(vec))
	for i, ev := range vec {
		n := c.Net(ev.Net)
		if n == nil {
			return nil, fmt.Errorf("unknown net %q", ev.Net)
		}
		dir := waveform.Rising
		if ev.Dir == "fall" {
			dir = waveform.Falling
		}
		evs[i] = sta.PIEvent{Net: n, Dir: dir, TT: ev.TTPs * 1e-12, Time: ev.TimePs * 1e-12}
	}
	return evs, nil
}

// compile parses the netlist over the on-disk library through the service
// registry, the way stad's upload handler does.
func compile(netlist, libDir string) (*sta.Compiled, error) {
	c, err := parse(netlist, libDir)
	if err != nil {
		return nil, err
	}
	return c.Compile()
}

func parse(netlist, libDir string) (*sta.Circuit, error) {
	reg := service.NewRegistry(libDir, 8)
	lib := sta.NewLibrary()
	for _, typ := range []string{"inv", "nand2", "nand3"} {
		calc, err := reg.Get(typ)
		if err != nil {
			return nil, err
		}
		lib.Add(typ, calc)
	}
	return sta.ParseNetlist(strings.NewReader(netlist), lib)
}

// options are the analysis options the service applies for this workload;
// workers 1 is the serial reference path.
func (w *workload) options(workers int) sta.Options {
	return sta.Options{Workers: workers, PulseFiltering: w.pulse}
}

// reference computes every request's answer with the serial engine
// (Workers: 1) and encodes it as the service would. Requests are spread
// over two goroutines; each analysis itself stays serial.
func (w *workload) reference(ctx context.Context, libDir string) error {
	var err error
	if w.compiled, err = compile(w.netlist, libDir); err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	c := w.compiled.Circuit()
	if w.baseline != nil {
		evs, err := resolve(c, w.baseline)
		if err != nil {
			return err
		}
		if w.baseRes, err = w.compiled.Analyze(ctx, evs, sta.Proximity, w.options(1)); err != nil {
			return fmt.Errorf("reference baseline: %w", err)
		}
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(w.reqs); i += len(errs) {
				if err := w.referenceOne(ctx, w.reqs[i]); err != nil {
					errs[g] = fmt.Errorf("reference request %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *workload) referenceOne(ctx context.Context, r *request) error {
	c := w.compiled.Circuit()
	var resp any
	switch r.kind {
	case kindDelta:
		set, err := resolve(c, r.set)
		if err != nil {
			return err
		}
		res, err := w.compiled.AnalyzeDelta(ctx, w.baseRes, sta.Delta{Set: set}, w.options(1))
		if err != nil {
			return err
		}
		r.want = []service.VectorResult{vectorResult(c, res)}
		r.reevaluate, r.reused = res.Stats.GatesReevaluated, res.Stats.GatesReused
		resp = service.DeltaResponse{Mode: res.Mode.String(), VectorResult: r.want[0],
			GatesReevaluated: r.reevaluate, GatesReused: r.reused}
	default:
		for _, vec := range r.vectors {
			evs, err := resolve(c, vec)
			if err != nil {
				return err
			}
			res, err := w.compiled.Analyze(ctx, evs, sta.Proximity, w.options(1))
			if err != nil {
				return err
			}
			r.want = append(r.want, vectorResult(c, res))
		}
		if r.kind == kindBatch {
			resp = service.BatchResponse{Mode: sta.Proximity.String(), Results: r.want}
		} else {
			resp = service.AnalyzeResponse{Mode: sta.Proximity.String(), VectorResult: r.want[0]}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return err
	}
	r.expect = buf.Bytes()
	return nil
}

// vectorResult is the service's wire view of one result (primary outputs,
// declaration order, rising before falling).
func vectorResult(c *sta.Circuit, res *sta.Result) service.VectorResult {
	vr := service.VectorResult{
		Arrivals:       []service.Arrival{},
		GatesEvaluated: res.Stats.GatesEvaluated,
		ProximityEvals: res.Stats.ProximityEvals,
		SingleArcEvals: res.Stats.SingleArcEvals,
		PulsesFiltered: res.Stats.PulsesFiltered,
		PulsesDegraded: res.Stats.PulsesDegraded,
		PulsesUnjudged: res.Stats.PulsesUnjudged,
	}
	for _, po := range c.POs {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			if a, ok := res.Arrival(po, dir); ok {
				vr.Arrivals = append(vr.Arrivals, service.Arrival{Net: po.Name, Dir: dir.String(),
					TimePs: a.Time * 1e12, TTPs: a.TT * 1e12, UsedInputs: a.UsedInputs})
			}
		}
	}
	return vr
}

// bind encodes every request body against the handles set-up obtained.
func (w *workload) bind(netlistID, baselineID string) error {
	for _, r := range w.reqs {
		var v any
		switch r.kind {
		case kindBatch:
			v = service.BatchRequest{Netlist: netlistID, Vectors: r.vectors, PulseFilter: w.pulse}
		case kindAnalyze:
			v = service.AnalyzeRequest{Netlist: netlistID, Vector: r.vectors[0], PulseFilter: w.pulse}
		case kindDelta:
			v = service.DeltaRequest{Baseline: baselineID, Set: r.set, PulseFilter: w.pulse}
		}
		var err error
		if r.body, err = json.Marshal(v); err != nil {
			return err
		}
	}
	return nil
}

// check compares a response body with the request's reference. Identical
// bytes pass at once. Otherwise the body is decoded and every arrival
// (bit for bit) and work counter is compared, so a response that only
// gains fields still passes while any changed number fails.
func (r *request) check(body []byte) (identical bool, err error) {
	if bytes.Equal(body, r.expect) {
		return true, nil
	}
	var got []service.VectorResult
	switch r.kind {
	case kindBatch:
		var resp service.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, fmt.Errorf("decode: %w", err)
		}
		got = resp.Results
	case kindAnalyze:
		var resp service.AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, fmt.Errorf("decode: %w", err)
		}
		got = []service.VectorResult{resp.VectorResult}
	case kindDelta:
		var resp service.DeltaResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, fmt.Errorf("decode: %w", err)
		}
		if resp.GatesReevaluated != r.reevaluate || resp.GatesReused != r.reused {
			return false, fmt.Errorf("delta counters reevaluated/reused %d/%d, want %d/%d",
				resp.GatesReevaluated, resp.GatesReused, r.reevaluate, r.reused)
		}
		got = []service.VectorResult{resp.VectorResult}
	}
	if len(got) != len(r.want) {
		return false, fmt.Errorf("%d results, want %d", len(got), len(r.want))
	}
	for i := range got {
		if err := sameVector(got[i], r.want[i]); err != nil {
			return false, fmt.Errorf("vector %d: %w", i, err)
		}
	}
	return false, nil
}

func sameVector(got, want service.VectorResult) error {
	gc := [6]int{got.GatesEvaluated, got.ProximityEvals, got.SingleArcEvals,
		got.PulsesFiltered, got.PulsesDegraded, got.PulsesUnjudged}
	wc := [6]int{want.GatesEvaluated, want.ProximityEvals, want.SingleArcEvals,
		want.PulsesFiltered, want.PulsesDegraded, want.PulsesUnjudged}
	if gc != wc {
		return fmt.Errorf("counters (evaluated, proximity, single-arc, filtered, degraded, unjudged) %v, want %v", gc, wc)
	}
	if len(got.Arrivals) != len(want.Arrivals) {
		return fmt.Errorf("%d arrivals, want %d", len(got.Arrivals), len(want.Arrivals))
	}
	for k, a := range got.Arrivals {
		b := want.Arrivals[k]
		if a.Net != b.Net || a.Dir != b.Dir || a.UsedInputs != b.UsedInputs ||
			math.Float64bits(a.TimePs) != math.Float64bits(b.TimePs) ||
			math.Float64bits(a.TTPs) != math.Float64bits(b.TTPs) {
			return fmt.Errorf("arrival %d: got %+v, want %+v", k, a, b)
		}
	}
	return nil
}

// corrupt returns a copy of body with one digit of the first value of the
// named field changed — the response a broken engine or encoder might send.
func corrupt(body []byte, field string) ([]byte, error) {
	out := append([]byte(nil), body...)
	key := []byte(`"` + field + `":`)
	i := bytes.Index(out, key)
	if i < 0 {
		return nil, fmt.Errorf("no %s to corrupt", field)
	}
	for j := i + len(key); j < len(out); j++ {
		if c := out[j]; c >= '1' && c <= '9' {
			out[j] = '0' + (c-'0')%9 + 1
			return out, nil
		}
	}
	return nil, fmt.Errorf("no digit to corrupt")
}
