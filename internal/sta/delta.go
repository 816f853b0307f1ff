package sta

// Event-driven delta re-analysis. The proximity model makes every arrival a
// function of which other inputs moved nearby, so what-if sweeps and ECO
// re-timing generate streams of near-duplicate queries: the same netlist,
// the same stimulus vector give or take a handful of primary-input events.
// Re-analyzing each from scratch is almost entirely redundant — the
// recomputed arrivals are bit-identical to the baseline everywhere the
// perturbation's influence has died out. AnalyzeDelta exploits that: clone
// the baseline arrival store, apply the delta at the primary inputs, then
// run the propagation walk (walk.go) from the edited inputs — the same walk
// a full analysis runs from an empty store. It re-runs evalGate only on
// gates whose inputs changed and cuts off wherever a recomputed output is
// bit-equal to what the baseline already had. Gates the wavefront never
// reaches keep their baseline arrivals — and because evalGate is
// deterministic over committed arrivals, the result is bit-identical to a
// fresh full analysis of the edited vector (enforced by the
// internal/difftest delta-vs-full oracle).

import (
	"context"
	"fmt"
	"maps"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/waveform"
)

// DeltaRemove names one primary-input event of the baseline to withdraw.
type DeltaRemove struct {
	Net *Net
	Dir waveform.Direction
}

// Delta is a stimulus edit against a baseline result: Remove withdraws
// baseline primary-input events, Set adds or replaces them. Removes apply
// first, so a Set on a removed (net, direction) re-adds it. The equivalent
// full vector is the baseline's events with these edits applied.
type Delta struct {
	Set    []PIEvent
	Remove []DeltaRemove
}

// cloneForDelta copies a result's arrival store so the delta walk can
// overwrite in place while the baseline stays immutable (and reusable as
// the baseline of further deltas). The pulse state rides along: the verdict
// map and the absorbed pairs' raw shapes are part of what "bit-identical to
// a fresh filtered analysis" means, and the walk mutates both in place.
//
// The slab copy is already the right size: a delta rarely reaches a net
// the baseline left without arrivals, so unlike a full analysis it does
// not grow its slab in the walk scratch.
func cloneForDelta(baseline *Result) *Result {
	return &Result{
		Mode:           baseline.Mode,
		idx:            append([]int32(nil), baseline.idx...),
		arr:            append([]dirArrivals(nil), baseline.arr...),
		pulseFiltering: baseline.pulseFiltering,
		pulses:         maps.Clone(baseline.pulses),
		pulseRaw:       maps.Clone(baseline.pulseRaw),
	}
}

// slotValue reads a net's arrival pair without creating a slot.
func slotValue(r *Result, id int32) dirArrivals {
	if s := r.idx[id]; s != 0 {
		return r.arr[s-1]
	}
	return dirArrivals{}
}

// AnalyzeDelta re-times a perturbed stimulus vector against a baseline
// result previously produced by this handle (any of Analyze, AnalyzeBatch
// or a prior AnalyzeDelta — delta chains compose). The analysis mode is the
// baseline's, and so is pulse filtering: Options.PulseFiltering must agree
// with how the baseline was produced, and under filtering every re-evaluated
// gate's opposite-edge pair is re-judged (verdicts of untouched gates are
// inherited). Only gates whose input arrivals actually change propagate; the
// returned result is bit-identical to a full analysis of the edited vector —
// arrivals, transition times, PulseInfo records and pulse counters — with
// Stats.GatesReevaluated/GatesReused reporting how much of the baseline
// survived. The baseline must come from this compiled handle — a baseline
// from before a structural edit is rejected.
func (p *Compiled) AnalyzeDelta(ctx context.Context, baseline *Result, delta Delta, opt Options) (*Result, error) {
	wallStart := time.Now()
	if baseline == nil {
		return nil, fmt.Errorf("sta: delta analysis requires a baseline result")
	}
	if len(baseline.idx) != p.numNets {
		return nil, fmt.Errorf("sta: baseline indexes %d nets but the compiled handle has %d — it was produced by a different compile", len(baseline.idx), p.numNets)
	}
	if len(delta.Set) == 0 && len(delta.Remove) == 0 {
		return nil, fmt.Errorf("sta: empty delta (no events set or removed)")
	}
	// Pulse filtering is inherited from the baseline like the analysis mode
	// is — a delta re-times the same analysis, it cannot change its
	// semantics. Require the option to agree so a caller who thinks they
	// are toggling the filter gets an error, not a silent mismatch.
	if opt.PulseFiltering != baseline.pulseFiltering {
		if baseline.pulseFiltering {
			return nil, fmt.Errorf("sta: delta options: PulseFiltering is off but the baseline was analyzed with it on (a delta cannot change analysis semantics — run a full analysis instead)")
		}
		return nil, fmt.Errorf("sta: delta options: PulseFiltering is on but the baseline was analyzed without it (a delta cannot change analysis semantics — run a full analysis instead)")
	}
	tr := opt.Trace
	deltaSpan := tr.Begin(0, 0, "sta", "delta").
		Arg("set", len(delta.Set)).Arg("remove", len(delta.Remove))
	if id := tr.ID(); id != "" {
		// Same correlation stamp the full-analysis span carries.
		deltaSpan = deltaSpan.Arg("traceId", id)
	}
	defer deltaSpan.End()

	c := p.c
	mode := baseline.Mode
	res := cloneForDelta(baseline)
	res.Stats.Workers = 1
	res.Stats.Levels = len(p.levelIdx)
	res.Stats.Evaluations = baseline.Stats.Evaluations
	res.Stats.ProximityEvals = baseline.Stats.ProximityEvals
	res.Stats.SingleArcEvals = baseline.Stats.SingleArcEvals
	res.Stats.GatesEvaluated = baseline.Stats.GatesEvaluated
	res.Stats.PulsesFiltered = baseline.Stats.PulsesFiltered
	res.Stats.PulsesDegraded = baseline.Stats.PulsesDegraded
	res.Stats.PulsesUnjudged = baseline.Stats.PulsesUnjudged

	// Apply the edit at the primary inputs: removes first, then sets, each
	// with the same validation the full-analysis seed performs. touched
	// collects the edited net IDs; dirtiness is decided afterwards by
	// comparing the final seed against the baseline.
	touched := make([]int32, 0, len(delta.Set)+len(delta.Remove))
	for i, rm := range delta.Remove {
		if rm.Net == nil || !c.piSet[rm.Net] {
			name := "<nil>"
			if rm.Net != nil {
				name = rm.Net.Name
			}
			return nil, fmt.Errorf("sta: delta removes event on non-primary-input net %s", name)
		}
		if int(rm.Net.id) >= p.numNets {
			return nil, fmt.Errorf("sta: delta removes event on net %s declared after compile", rm.Net.Name)
		}
		for _, prev := range delta.Remove[:i] {
			if prev.Net == rm.Net && prev.Dir == rm.Dir {
				return nil, fmt.Errorf("sta: duplicate delta remove of %v event on %s", rm.Dir, rm.Net.Name)
			}
		}
		slot := res.idx[rm.Net.id]
		if slot == 0 || !res.arr[slot-1].has[rm.Dir] {
			return nil, fmt.Errorf("sta: delta removes absent %v event on primary input %s", rm.Dir, rm.Net.Name)
		}
		da := &res.arr[slot-1]
		da.a[rm.Dir] = Arrival{}
		da.has[rm.Dir] = false
		touched = append(touched, rm.Net.id)
	}
	for i, ev := range delta.Set {
		if ev.Net == nil || !c.piSet[ev.Net] {
			name := "<nil>"
			if ev.Net != nil {
				name = ev.Net.Name
			}
			return nil, fmt.Errorf("sta: delta event on non-primary-input net %s", name)
		}
		if int(ev.Net.id) >= p.numNets {
			return nil, fmt.Errorf("sta: delta event on net %s declared after compile (recompile the circuit)", ev.Net.Name)
		}
		if !(ev.TT > 0) || math.IsInf(ev.TT, 1) {
			return nil, fmt.Errorf("sta: delta event on %s has non-positive or non-finite transition time %v", ev.Net.Name, ev.TT)
		}
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return nil, fmt.Errorf("sta: delta event on %s has non-finite time %v", ev.Net.Name, ev.Time)
		}
		for _, prev := range delta.Set[:i] {
			if prev.Net == ev.Net && prev.Dir == ev.Dir {
				return nil, fmt.Errorf("sta: duplicate %v delta event on primary input %s", ev.Dir, ev.Net.Name)
			}
		}
		da := res.slot(ev.Net)
		da.a[ev.Dir] = Arrival{Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
		da.has[ev.Dir] = true
		touched = append(touched, ev.Net.id)
	}

	// The edited vector must still stimulate something, exactly as a full
	// analysis rejects an empty vector. Any successful Set guarantees it;
	// a remove-only delta needs the scan.
	if len(delta.Set) == 0 {
		alive := false
		for _, pi := range c.PIs {
			if int(pi.id) >= len(res.idx) {
				continue
			}
			if da := slotValue(res, pi.id); da.has[0] || da.has[1] {
				alive = true
				break
			}
		}
		if !alive {
			return nil, fmt.Errorf("sta: delta removes every primary-input event (empty stimulus vector)")
		}
	}

	// Only edited inputs whose final seed differs from the baseline's are
	// touched, so a Set that lands bit-equal to what the baseline already had
	// (or a Remove+Set that round-trips) propagates nothing.
	dirty := touched[:0]
	for _, id := range touched {
		if slotValue(res, id) != slotValue(baseline, id) {
			dirty = append(dirty, id)
		}
	}
	// Serial: the wavefront is expected to be tiny against the netlist;
	// batch-level parallelism belongs to the caller.
	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	overwritten, err := p.propagate(ctx, res, dirty, s, walkOpts{mode: mode, workers: 1, perturb: opt.Perturb})
	if err != nil {
		return nil, err
	}
	res.Stats.GatesReevaluated = res.Stats.GatesScheduled
	res.Stats.GatesReused = baseline.Stats.GatesEvaluated - overwritten
	res.Stats.Wall = time.Since(wallStart)
	// A delta reports its walk as one top-level phase, so the disjointness
	// invariant (Sum() <= Wall) holds; only the consumer-CSR wait stays
	// broken out.
	cones := res.Stats.Phases[obs.PhaseCones]
	res.Stats.Phases = obs.PhaseTimes{}
	res.Stats.Phases.Add(obs.PhaseCones, cones)
	res.Stats.Phases.Add(obs.PhaseDelta, res.Stats.Wall-cones)
	return res, nil
}

// AnalyzeDelta is the circuit-level convenience wrapper: it compiles (or
// reuses the memoized handle) and runs the delta against it, attributing
// any compile it performed like AnalyzeOpts does. The baseline must have
// been produced against the circuit's current structure — after a
// structural edit the handle recompiles and the stale baseline is rejected.
func (c *Circuit) AnalyzeDelta(baseline *Result, delta Delta, opt Options) (*Result, error) {
	compileStart := time.Now()
	p, fresh, err := c.compileTimed(opt.Trace)
	if err != nil {
		return nil, err
	}
	compileWall := time.Since(compileStart)
	res, err := p.AnalyzeDelta(context.Background(), baseline, delta, opt)
	if err != nil {
		return nil, err
	}
	res.Stats.Phases.Add(obs.PhaseCompile, compileWall)
	if fresh {
		res.Stats.Phases.Add(obs.PhaseLevelize, p.levelizeWall)
	}
	res.Stats.Wall += compileWall
	return res, nil
}
