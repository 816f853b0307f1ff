package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// Trace rows: one process id per layer the benchmark times.
const (
	pidClient = 1 + iota
	pidServer
	pidEngine
	pidMicro
)

// spans collects Chrome trace_event records relative to one clock zero.
type spans struct {
	t0  time.Time
	evs []obs.TraceEvent
}

func (sp *spans) add(pid, tid int64, name string, start, end time.Time, args map[string]any) {
	sp.evs = append(sp.evs, obs.TraceEvent{Name: name, Cat: "perfbench", Ph: "X", PID: pid, TID: tid,
		TS: float64(start.Sub(sp.t0).Nanoseconds()) / 1e3, Dur: float64(end.Sub(start).Nanoseconds()) / 1e3, Args: args})
}

func (sp *spans) nameProcess(pid int64, name string) {
	sp.evs = append(sp.evs, obs.TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

// write stores the spans as a Chrome trace_event document and validates it
// with the same checker `sta -validate-trace` runs.
func (sp *spans) write(path string) (int, error) {
	data, err := json.Marshal(struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}{sp.evs})
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	evs, err := obs.ValidateChromeTrace(data)
	return len(evs), err
}

// readWideLog loads the daemon's wide events keyed by request id.
func readWideLog(path string) (map[string]obs.WideEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]obs.WideEvent{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var ev obs.WideEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("wide log: %w", err)
		}
		out[ev.ID] = ev
	}
	return out, sc.Err()
}

// vectorWorkers is how many vectors a stad batch request runs at once: the
// engine's default worker count (one per CPU, at most 16), capped by the
// batch size. Engine phase time summed over a batch's vectors is divided by
// it to put the phases on the request's wall-clock scale.
func vectorWorkers(r *request) int {
	if r.kind != kindBatch {
		return 1
	}
	n := min(runtime.NumCPU(), 16)
	return max(1, min(n, len(r.vectors)))
}

// serviceLayer joins the traced load's client samples with the daemon's
// wide events and accounts each request's latency to its layers.
func serviceLayer(lr loadResult, events map[string]obs.WideEvent, sp *spans) ([]metric, []string, error) {
	var n, unmatched int
	var client, wall, admission, engine, residue, wire, reqB, respB float64
	var phases obs.PhaseTimes
	for _, s := range lr.samples {
		c := float64(s.end.Sub(s.start)) / 1e6
		sp.add(pidClient, int64(s.conn), s.req.path(), s.start, s.end,
			map[string]any{"id": s.id, "requestBytes": s.reqBytes, "responseBytes": s.respBytes})
		ev, ok := events[s.id]
		if !ok {
			unmatched++
			continue
		}
		n++
		w := float64(ev.Wall) / 1e6
		a := float64(ev.AdmissionWait) / 1e6
		e := float64(ev.Phases.Sum()) / 1e6 / float64(vectorWorkers(s.req))
		client += c
		wall += w
		admission += a
		engine += e
		residue += w - a - e
		wire += c - w
		reqB += float64(s.reqBytes)
		respB += float64(s.respBytes)
		for _, p := range obs.Phases() {
			phases.Add(p, ev.Phases[p])
		}
		sp.add(pidServer, int64(s.conn), "stad "+ev.Endpoint, ev.Start, ev.Start.Add(ev.Wall),
			map[string]any{"id": s.id, "enginePhasesMs": e, "vectors": ev.Vectors})
		sp.add(pidServer, int64(s.conn), "admission", ev.Start, ev.Start.Add(ev.AdmissionWait), nil)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("no measured request has a wide event (%d unmatched)", unmatched)
	}
	k := float64(n)
	lines := []string{
		fmt.Sprintf("identity client latency = wire + server wall: %.3f ms = %.3f + %.3f ms, residue %.3g ms (mean of %d requests; %d without a wide event)",
			client/k, wire/k, wall/k, (client-wire-wall)/k, n, unmatched),
		fmt.Sprintf("identity server wall = admission + engine phases + service residue: %.3f ms = %.3f + %.3f + %.3f ms (batch phase time divided by %d parallel vector workers)",
			wall/k, admission/k, engine/k, residue/k, min(runtime.NumCPU(), 16)),
	}
	breakdown := "server engine phases (summed over vectors, mean per request):"
	for _, p := range obs.Phases() {
		if d := phases[p]; d > 0 {
			breakdown += fmt.Sprintf(" %s=%.3fms", p, float64(d)/1e6/k)
		}
	}
	lines = append(lines, breakdown)
	return []metric{
		{"service.server_wall_ms", wall / k, "ms", ""},
		{"service.admission_wait_ms", admission / k, "ms", ""},
		{"service.residue_ms", residue / k, "ms", "server wall - admission - engine phases"},
		{"service.wire_ms", wire / k, "ms", "client latency - server wall"},
		{"service.request_bytes", reqB / k, "B", ""},
		{"service.response_bytes", respB / k, "B", ""},
	}, lines, nil
}

// engineCall is one pooled request resolved for in-process analysis.
type engineCall struct {
	r     *request
	batch [][]sta.PIEvent
	delta sta.Delta
}

// engineLayer runs the pool's identical inputs through the in-process
// engine with stad's options (default workers), for at least minDur and at
// least one whole pass. Counts come from the first pass, so they repeat
// exactly for a seed; times are means over every pass.
func engineLayer(ctx context.Context, w *workload, libDir string, minDur time.Duration, sp *spans) ([]metric, []string, error) {
	opt := w.options(0)
	c := w.compiled.Circuit()
	calls := make([]engineCall, len(w.reqs))
	for i, r := range w.reqs {
		calls[i].r = r
		if r.kind == kindDelta {
			set, err := resolve(c, r.set)
			if err != nil {
				return nil, nil, err
			}
			calls[i].delta = sta.Delta{Set: set}
			continue
		}
		for _, vec := range r.vectors {
			evs, err := resolve(c, vec)
			if err != nil {
				return nil, nil, err
			}
			calls[i].batch = append(calls[i].batch, evs)
		}
	}
	var baseline *sta.Result
	if w.baseline != nil {
		evs, err := resolve(c, w.baseline)
		if err != nil {
			return nil, nil, err
		}
		if baseline, err = w.compiled.Analyze(ctx, evs, sta.Proximity, opt); err != nil {
			return nil, nil, err
		}
	}

	var (
		phases                            obs.PhaseTimes
		nCalls, vectors, evaluations      int
		scheduled, evaluated, reevaluated int
		judged, unjudged                  int
	)
	// A delta result's counters describe the whole re-timed analysis,
	// baseline included, so for deltas only the re-evaluated gates count as
	// work done in the call; their evaluation time is in the delta phase.
	record := func(first, delta bool, res *sta.Result) {
		st := &res.Stats
		for _, p := range obs.Phases() {
			phases.Add(p, st.Phases[p])
		}
		vectors++
		if !delta {
			evaluations += st.Evaluations
		}
		if !first {
			return
		}
		scheduled += st.GatesScheduled
		reevaluated += st.GatesReevaluated
		if delta {
			evaluated += st.GatesReevaluated
			return
		}
		evaluated += st.GatesEvaluated
		judged += st.PulsesFiltered + st.PulsesDegraded
		unjudged += st.PulsesUnjudged
	}
	sp.evs = slices.Grow(sp.evs, 1<<14) // so recording a span does not allocate inside the measured loop
	gc0, cpu0, ms0 := gcCPU()
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < minDur; pass++ {
		for _, call := range calls {
			start := time.Now()
			name := "AnalyzeBatch"
			switch call.r.kind {
			case kindDelta:
				name = "AnalyzeDelta"
				res, err := w.compiled.AnalyzeDelta(ctx, baseline, call.delta, opt)
				if err != nil {
					return nil, nil, err
				}
				record(pass == 0, true, res)
			case kindAnalyze:
				name = "Analyze"
				res, err := w.compiled.Analyze(ctx, call.batch[0], sta.Proximity, opt)
				if err != nil {
					return nil, nil, err
				}
				record(pass == 0, false, res)
			default:
				results, err := w.compiled.AnalyzeBatch(ctx, call.batch, sta.Proximity, opt)
				if err != nil {
					return nil, nil, err
				}
				for _, res := range results {
					record(pass == 0, false, res)
				}
			}
			nCalls++
			sp.add(pidEngine, 0, name, start, time.Now(), nil)
		}
	}
	elapsed := time.Since(t0)
	gc1, cpu1, ms1 := gcCPU()

	perCall := func(p obs.Phase) float64 { return float64(phases[p]) / 1e6 / float64(nCalls) }
	ratio := 0.0
	if scheduled > 0 {
		ratio = float64(evaluated) / float64(scheduled)
	}
	compileMs, err := compileLayer(w.netlist, libDir)
	if err != nil {
		return nil, nil, err
	}
	lines := []string{fmt.Sprintf("engine alone: %d calls, %d vectors in %.3f s (default workers, one caller)",
		nCalls, vectors, elapsed.Seconds())}
	return []metric{
		{"sta.vectors_per_s", float64(vectors) / elapsed.Seconds(), "1/s", "engine alone, same requests"},
		{"sta.eval_ms", perCall(obs.PhaseEval), "ms", "per request, summed over its vectors"},
		{"sta.commit_ms", perCall(obs.PhaseCommit), "ms", "per request"},
		{"sta.eval_ns_per_evaluation", float64(phases[obs.PhaseEval]) / float64(max(evaluations, 1)), "ns", "eval phase / per-direction delay calculations, full analyses"},
		{"sta.allocs_per_vector", float64(ms1.Mallocs-ms0.Mallocs) / float64(vectors), "count", ""},
		{"sta.alloc_bytes_per_vector", float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(vectors), "B", ""},
		{"sta.gc_cpu_share", (gc1 - gc0) / (cpu1 - cpu0), "ratio", "GC CPU / GOMAXPROCS x wall"},
		{"sta.cones_ms", perCall(obs.PhaseCones), "ms", "per request"},
		{"sta.schedule_ms", perCall(obs.PhaseSchedule), "ms", "per request"},
		{"sta.delta_ms", perCall(obs.PhaseDelta), "ms", "per request"},
		{"sta.compile_ms", compileMs, "ms", "median of 5 compiles"},
		{"sta.gates_scheduled", float64(scheduled), "count", "one pass over the pool"},
		{"sta.gates_evaluated", float64(evaluated), "count", "evaluated in the call (re-evaluated for deltas), one pass"},
		{"sta.gates_reevaluated", float64(reevaluated), "count", "one pass over the pool"},
		{"sta.useful_schedule_ratio", ratio, "ratio", "gates_evaluated / gates_scheduled"},
		{"sta.glitch_ms", perCall(obs.PhaseGlitch), "ms", "per request"},
		{"sta.pulses_judged", float64(judged), "count", "filtered + degraded, one pass"},
		{"sta.pulses_unjudged", float64(unjudged), "count", "one pass over the pool"},
	}, lines, nil
}

// gcCPU forces a collection, so the runtime's CPU accounting is current,
// and reads GC CPU seconds, total available CPU seconds and the
// allocation counters.
func gcCPU() (gc, total float64, ms runtime.MemStats) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	runtime.ReadMemStats(&ms)
	return s[0].Value.Float64(), s[1].Value.Float64(), ms
}

// compileLayer times Compile on freshly parsed copies of the netlist.
func compileLayer(netlist, libDir string) (float64, error) {
	var ms []float64
	for i := 0; i < 5; i++ {
		c, err := parse(netlist, libDir)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := c.Compile(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// sink keeps micro-benchmark results alive.
var sink float64

// microLayer times the proximity calculator on 1-, 2- and 3-input nand3
// events and the 3-D table interpolation it rests on, over the on-disk
// nand3 model. Each figure is the median of five timed repetitions.
func microLayer(libDir string, sp *spans) ([]metric, error) {
	calc, err := service.NewRegistry(libDir, 1).Get("nand3")
	if err != nil {
		return nil, err
	}
	const ps = 1e-12
	sets := [][]core.InputEvent{
		{{Pin: 0, Dir: waveform.Falling, TT: 300 * ps, Cross: 0}},
		{{Pin: 0, Dir: waveform.Rising, TT: 250 * ps, Cross: 0}, {Pin: 1, Dir: waveform.Rising, TT: 300 * ps, Cross: 30 * ps}},
		{{Pin: 0, Dir: waveform.Falling, TT: 200 * ps, Cross: 0}, {Pin: 1, Dir: waveform.Falling, TT: 350 * ps, Cross: 20 * ps},
			{Pin: 2, Dir: waveform.Falling, TT: 280 * ps, Cross: 45 * ps}},
	}
	const evals = 60000
	var evalErr error
	coreNs, coreAllocs := timeReps(sp, "core.Evaluate", evals, func() {
		for i := 0; i < evals; i++ {
			res, err := calc.Evaluate(sets[i%len(sets)])
			if err != nil {
				evalErr = err
				return
			}
			sink += res.Delay
		}
	})
	if evalErr != nil {
		return nil, fmt.Errorf("core.Evaluate: %w", evalErr)
	}

	grid := calc.Model.Duals[0].DelayRatio
	rng := rand.New(rand.NewSource(1))
	coords := make([][3]float64, 512)
	for i := range coords {
		for d := 0; d < 3; d++ {
			ax := grid.Axis(d)
			lo, hi := ax[0], ax[len(ax)-1]
			coords[i][d] = lo + (hi-lo)*rng.Float64()
		}
	}
	const lookups = 1000000
	tableNs, _ := timeReps(sp, "table.Grid.Eval", lookups, func() {
		for i := 0; i < lookups; i++ {
			c := &coords[i%len(coords)]
			sink += grid.Eval(c[0], c[1], c[2])
		}
	})
	return []metric{
		{"core.evaluate_ns", coreNs, "ns", "nand3, 1-/2-/3-input events in rotation"},
		{"core.allocs_per_evaluate", coreAllocs, "count", ""},
		{"table.eval_ns", tableNs, "ns", "3-D Grid.Eval"},
	}, nil
}

// timeReps runs body five times and returns the median nanoseconds per
// operation and the allocations per operation over all repetitions.
func timeReps(sp *spans, name string, ops int, body func()) (nsPerOp, allocsPerOp float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		body()
		end := time.Now()
		ns = append(ns, float64(end.Sub(t).Nanoseconds())/float64(ops))
		sp.add(pidMicro, 0, name, t, end, map[string]any{"ops": ops})
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(ns)
	return ns[len(ns)/2], float64(ms1.Mallocs-ms0.Mallocs) / float64(5*ops)
}

// traced runs the per-layer measurement: the workload once without and
// once with tracing (stad -wide-log plus client spans), then the engine
// alone on the same inputs and the calculator and table micro loops. It
// writes the spans to tracePath.
func traced(ctx context.Context, w *workload, cfg config, runDir, tracePath string) (report, error) {
	var rep report
	client := newClient()
	dur := time.Duration(cfg.seconds) * time.Second

	load := func(wideLog string) (loadResult, error) {
		s, _, err := setup(ctx, w, client, cfg.stad, runDir, wideLog)
		if err != nil {
			return loadResult{}, err
		}
		rep.stadGOMAXPROCS, rep.stadGoVersion = s.gomaxprocs, s.goVersion
		lr := runLoad(ctx, client, s.base, w, dur)
		s.stop()
		client.CloseIdleConnections()
		rep.account(lr)
		if len(lr.samples) == 0 {
			return lr, fmt.Errorf("no request completed")
		}
		return lr, nil
	}
	plain, err := load("")
	if err != nil {
		return rep, err
	}
	wideLog := filepath.Join(runDir, "wide.jsonl")
	lr, err := load(wideLog)
	if err != nil {
		return rep, err
	}
	plainRate := float64(len(plain.samples)) / plain.elapsed.Seconds()
	tracedRate := float64(len(lr.samples)) / lr.elapsed.Seconds()
	rep.lines = append(rep.lines, fmt.Sprintf(
		"tracing overhead: %.4g requests/s untraced, %.4g traced (-wide-log + client spans): %+.2f%%",
		plainRate, tracedRate, 100*(plainRate-tracedRate)/plainRate))

	events, err := readWideLog(wideLog)
	if err != nil {
		return rep, err
	}
	sp := &spans{t0: lr.t0}
	sp.nameProcess(pidClient, "perfbench client (tid = connection)")
	sp.nameProcess(pidServer, "stad, from wide events (tid = connection)")
	sp.nameProcess(pidEngine, "sta.Compiled in-process")
	sp.nameProcess(pidMicro, "core / table micro loops")
	svc, lines, err := serviceLayer(lr, events, sp)
	if err != nil {
		return rep, err
	}
	rep.metrics = append(rep.metrics, svc...)
	rep.lines = append(rep.lines, lines...)

	eng, lines, err := engineLayer(ctx, w, filepath.Join(runDir, "lib"), dur/2, sp)
	if err != nil {
		return rep, err
	}
	rep.metrics = append(rep.metrics, eng...)
	rep.lines = append(rep.lines, lines...)

	micro, err := microLayer(filepath.Join(runDir, "lib"), sp)
	if err != nil {
		return rep, err
	}
	rep.metrics = append(rep.metrics, micro...)

	n, err := sp.write(tracePath)
	if err != nil {
		rep.broken = true
		rep.notes = append(rep.notes, fmt.Sprintf("trace %s does not validate: %v", tracePath, err))
	} else {
		rep.lines = append(rep.lines, fmt.Sprintf("trace: %s, %d events, valid Chrome trace_event", tracePath, n))
	}
	return rep, nil
}
