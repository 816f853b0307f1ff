package sta

// The propagation walk. The paper's Algorithm ProximityDelay only ever
// combines inputs that actually switch, so the exact schedule is
// event-driven: a gate is evaluated if and only if one of its inputs
// received an arrival. The walk is a level-bucketed worklist over the
// net-to-consumer edges. Seed it with the nets whose arrivals changed; each
// bucket, taken in ascending topological level and sorted into netlist
// order, is evaluated (in parallel when wide) and then committed serially.
// A committed output that is bit-equal to what the store already held stops
// there; any other output enqueues its consumers at deeper levels.
//
// A full analysis is this walk started from an empty Result with every
// stimulated primary input touched; a delta is the same walk started from
// a clone of the baseline with the edited inputs touched. Gates the walk
// never reaches receive no arrival (full) or keep the baseline's (delta),
// and because evalGate is a deterministic function of the committed
// arrivals, both are bit-identical to walking every gate of every level
// (enforced against the every-gate reference by the kernel oracles).

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// evalScratch is the per-walk working set, pooled on the Compiled handle so
// steady-state batch traffic allocates only the Result it returns. One
// scratch is checked out per in-flight walk; all fields are sized once
// against the compiled shape and reused.
type evalScratch struct {
	// slabHint is how many arrival slots the last full analysis on this
	// scratch filled. The next one presizes its Result's slab to it, so a
	// stream of vectors on one netlist allocates each slab once, at its
	// final size, and keeps no slab alive between walks (see fit).
	slabHint int
	outs     []gateEval        // per-bucket evaluation buffer (maxWidth wide)
	evs      []core.InputEvent // serial path's reusable input-event buffer
	queued   []bool            // per gate: already in a bucket this walk
	marked   []int32           // queued gate indices, for O(queued) reset
	buckets  [][]int32         // per level: queued gate indices
}

func newEvalScratch(p *Compiled) *evalScratch {
	return &evalScratch{
		outs:    make([]gateEval, p.maxWidth),
		queued:  make([]bool, p.gates),
		buckets: make([][]int32, len(p.levelIdx)),
	}
}

// fit records how many slots a full analysis filled as the next one's
// presize, and returns its slab as is, or as a right-sized copy when more
// than half of it is unused (a small walk after a large one).
func (s *evalScratch) fit(arr []dirArrivals) []dirArrivals {
	s.slabHint = len(arr)
	if len(arr) < cap(arr)/2 {
		return slices.Clone(arr)
	}
	return arr
}

// ensureConsumers builds the net -> consuming-gate CSR on first use. The
// walk enqueues along it, incremental recompile merges it with the edit's
// new edges, and AnalyzeMC walks it for output reachability. Consumers of
// one net are listed in ascending gate index (the fill pass visits gates in
// netlist order).
func (p *Compiled) ensureConsumers() {
	p.consOnce.Do(func() {
		consOff := make([]int32, p.numNets+1)
		for _, g := range p.gateList {
			for _, in := range g.In {
				if int(in.id) < p.numNets {
					consOff[in.id+1]++
				}
			}
		}
		for i := 0; i < p.numNets; i++ {
			consOff[i+1] += consOff[i]
		}
		cons := make([]int32, consOff[p.numNets])
		pos := make([]int32, p.numNets)
		copy(pos, consOff[:p.numNets])
		for gi, g := range p.gateList {
			for _, in := range g.In {
				if int(in.id) < p.numNets {
					cons[pos[in.id]] = int32(gi)
					pos[in.id]++
				}
			}
		}
		p.consOff, p.cons = consOff, cons
	})
}

// consumers returns the gate indices consuming a net (shared storage —
// callers must not mutate). ensureConsumers must have run.
func (p *Compiled) consumers(netID int32) []int32 {
	return p.cons[p.consOff[netID]:p.consOff[netID+1]]
}

// seed validates a stimulus vector and returns a fresh Result holding just
// its primary-input arrivals, its slab presized to at least slots nets.
func (p *Compiled) seed(events []PIEvent, mode Mode, slots int) (*Result, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("sta: empty stimulus vector (no primary-input events)")
	}
	res := &Result{Mode: mode, idx: make([]int32, p.numNets), arr: make([]dirArrivals, 0, max(slots, 2*len(events)))}
	for _, ev := range events {
		if !p.c.piSet[ev.Net] {
			return nil, fmt.Errorf("sta: event on non-primary-input net %s", ev.Net.Name)
		}
		if int(ev.Net.id) >= p.numNets {
			return nil, fmt.Errorf("sta: event on net %s declared after compile (recompile the circuit)", ev.Net.Name)
		}
		// !(TT > 0) rather than TT <= 0: NaN fails every ordered comparison,
		// so the naive guard waves NaN through into the interpolators.
		if !(ev.TT > 0) || math.IsInf(ev.TT, 1) {
			return nil, fmt.Errorf("sta: event on %s has non-positive or non-finite transition time %v", ev.Net.Name, ev.TT)
		}
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return nil, fmt.Errorf("sta: event on %s has non-finite time %v", ev.Net.Name, ev.Time)
		}
		da := res.slot(ev.Net)
		if da.has[ev.Dir] {
			return nil, fmt.Errorf("sta: duplicate %v event on primary input %s", ev.Dir, ev.Net.Name)
		}
		da.a[ev.Dir] = Arrival{Dir: ev.Dir, Time: ev.Time, TT: ev.TT}
		da.has[ev.Dir] = true
	}
	return res, nil
}

// analyze is a full analysis: seed the stimulus into an empty Result, then
// walk from every stimulated primary input. The context is polled once per
// level — cheap against the per-level work, frequent enough that request
// timeouts bite mid-walk.
func (p *Compiled) analyze(ctx context.Context, events []PIEvent, mode Mode, opt Options, pid int64) (*Result, error) {
	wallStart := time.Now()
	tr := opt.Trace
	// Fine-grained spans (per phase, per level, per worker) only when the
	// trace was explicitly requested: an always-on tail-sampling recorder
	// rides along on every request, so a passive request records just the
	// per-vector analyze span — its phase breakdown lives in Stats.Phases,
	// which the wide event carries anyway.
	var spans *obs.Trace
	if tr.Detail() {
		spans = tr
		tr.NameProcess(pid, obs.VectorName(pid))
		tr.NameThread(pid, 0, "schedule")
	}
	analyzeSpan := tr.Begin(pid, 0, "sta", "analyze").
		Arg("mode", mode.String()).Arg("events", len(events))
	if id := tr.ID(); id != "" {
		// The request's W3C trace id on the top-level engine span: a trace
		// artifact pulled out of the black box remains correlatable with the
		// distributed trace it belongs to.
		analyzeSpan = analyzeSpan.Arg("traceId", id)
	}
	defer analyzeSpan.End()

	s := p.scratch.Get().(*evalScratch)
	defer p.scratch.Put(s)
	seedStart := time.Now()
	res, err := p.seed(events, mode, s.slabHint)
	if err != nil {
		return nil, err
	}
	res.Stats.Phases.Add(obs.PhaseSeed, time.Since(seedStart))

	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	res.Stats.Workers = workers
	res.Stats.Levels = len(p.levelIdx)
	res.pulseFiltering = opt.PulseFiltering

	touched := make([]int32, len(events))
	for i, ev := range events {
		touched[i] = ev.Net.id
	}
	if _, err := p.propagate(ctx, res, touched, s, walkOpts{
		mode: mode, workers: workers, perturb: opt.Perturb, spans: spans, pid: pid,
	}); err != nil {
		return nil, err
	}
	res.arr = s.fit(res.arr)
	res.Stats.Wall = time.Since(wallStart)
	return res, nil
}

// walkOpts are the per-call knobs of propagate.
type walkOpts struct {
	mode    Mode
	workers int // per-bucket evaluation concurrency, >= 1
	perturb func(gate int32) float64
	// spans receives per-level, per-worker and commit spans under pid; nil
	// records none.
	spans *obs.Trace
	pid   int64
}

// propagate runs the walk over res in place from the nets in touched, on
// the caller's checked-out scratch s: every consumer of a touched net is
// evaluated against the committed arrivals, and every gate whose output
// changes enqueues its own consumers. Within a bucket every gate reads only
// arrivals committed at earlier levels and writes only its private gateEval
// slot, so the parallel evaluation is race-free by construction and
// bit-identical to the serial one. The commit runs in netlist order:
// deterministic stores, and the error reported is the one a serial walk
// would hit first. Under pulse filtering every evaluated gate's
// opposite-edge pair is re-judged from a clean slate.
//
// The workload counters are kept as diffs of raw evaluation shapes (the
// output before any pulse verdict), so a walk from an empty start simply
// adds, and a walk from a baseline withdraws each re-run gate's previous
// contribution first. It records GatesScheduled, PerLevel and the
// cones/schedule/eval/commit/glitch phases, and returns how many walked
// gates already held an evaluation in res.
func (p *Compiled) propagate(ctx context.Context, res *Result, touched []int32, s *evalScratch, w walkOpts) (overwritten int, err error) {
	tr := w.spans
	consSpan := tr.Begin(w.pid, 0, "sta", "cones")
	consStart := time.Now()
	p.ensureConsumers()
	res.Stats.Phases.Add(obs.PhaseCones, time.Since(consStart))
	consSpan.End()

	res.gates = p.gateList
	defer func() {
		// The queued flags must be clean before the scratch returns to the
		// pool, on every exit path.
		for _, gi := range s.marked {
			s.queued[gi] = false
		}
		s.marked = s.marked[:0]
	}()
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	// Consumers always sit at a strictly higher level than their producing
	// gate, so the ascending level walk below never revisits a bucket.
	enqueue := func(netID int32) {
		for _, gi := range p.consumers(netID) {
			if !s.queued[gi] {
				s.queued[gi] = true
				s.marked = append(s.marked, gi)
				s.buckets[p.gateLevel[gi]] = append(s.buckets[p.gateLevel[gi]], gi)
			}
		}
	}
	for _, id := range touched {
		enqueue(id)
	}
	if tr != nil {
		for k := 1; k <= w.workers; k++ {
			tr.NameThread(w.pid, int64(k), obs.WorkerName(int64(k-1)))
		}
	}

	res.Stats.PerLevel = make([]LevelStat, 0, len(s.buckets))
	for li, bucket := range s.buckets {
		if len(bucket) == 0 {
			res.Stats.PerLevel = append(res.Stats.PerLevel, LevelStat{})
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("sta: analysis interrupted: %w", err)
		}
		// The span name is only composed for a detailed recorder — the hot
		// path must not pay a Sprintf per level.
		var levelName string
		var levelSpan obs.Span
		if tr != nil {
			levelName = fmt.Sprintf("level %d", li)
			levelSpan = tr.Begin(w.pid, 0, "sta", levelName).Arg("gates", len(bucket))
		}
		start := time.Now()
		schedSpan := tr.Begin(w.pid, 0, "sta", "schedule")
		if len(bucket) == len(p.levelIdx[li]) {
			bucket = p.levelIdx[li] // the whole level, already in netlist order
		} else {
			slices.Sort(bucket)
		}
		res.Stats.Phases.Add(obs.PhaseSchedule, time.Since(start))
		schedSpan.End()

		evalStart := time.Now()
		if n := min(w.workers, len(bucket)); n <= 1 {
			for k, gi := range bucket {
				s.outs[k] = evalGate(p.gateList[gi], res, w.mode, &s.evs, gateMult(w.perturb, gi))
				if s.outs[k].err != nil {
					return 0, s.outs[k].err
				}
			}
		} else {
			p.evalParallel(bucket, res, s, n, w, levelName)
		}
		res.Stats.Phases.Add(obs.PhaseEval, time.Since(evalStart))

		commitSpan := tr.Begin(w.pid, 0, "sta", "commit")
		commitStart := time.Now()
		var glitchWall time.Duration
		for k, gi := range bucket {
			o := &s.outs[k]
			if o.err != nil {
				return 0, o.err
			}
			g := p.gateList[gi]
			prev := slotValue(res, g.Out.id)
			// prevRaw is the previous evaluation's pre-filter shape. For an
			// absorbed pair the committed store is empty while the evaluation
			// work happened (and was counted), so the raw pair — kept by
			// applyPulseFilter exactly for this — stands in for prev wherever
			// the walk accounts for work rather than committed influence.
			prevRaw := prev
			if res.pulseFiltering {
				if pi, ok := res.pulses[g.Out.id]; ok {
					if pi.Filtered {
						prevRaw = res.pulseRaw[g.Out.id]
					}
					// Re-judge from a clean slate: withdraw the previous
					// verdict (and its counter contribution) before the filter
					// records the fresh one — an unchanged verdict nets out to
					// zero. This must happen even when the committed arrivals
					// end up bit-equal: a gate with no previous arrivals
					// (absorbed pair) can still change its verdict, which is
					// why arrival bit-equality alone is not a sound cutoff
					// under filtering.
					res.dropPulse(g.Out.id)
				}
			}
			if prevRaw.has[0] || prevRaw.has[1] {
				overwritten++
			}
			res.Stats.tally(prevRaw, -1)
			res.Stats.tally(dirArrivals{a: o.a, has: o.has}, 1)
			if res.pulseFiltering && o.has[0] && o.has[1] {
				// Timed into its own phase (and carved out of commit below)
				// so the disjointness invariant holds.
				gStart := time.Now()
				applyPulseFilter(g, o, res)
				glitchWall += time.Since(gStart)
			}
			next := dirArrivals{a: o.a, has: o.has}
			if next == prev {
				continue // committed influence died out: downstream keeps what it has
			}
			*res.slot(g.Out) = next
			enqueue(g.Out.id)
		}
		res.Stats.Phases.Add(obs.PhaseCommit, time.Since(commitStart)-glitchWall)
		res.Stats.Phases.Add(obs.PhaseGlitch, glitchWall)
		commitSpan.End()
		res.Stats.GatesScheduled += len(bucket)
		res.Stats.PerLevel = append(res.Stats.PerLevel, LevelStat{Gates: len(bucket), Wall: time.Since(start)})
		levelSpan.End()
	}
	return overwritten, nil
}

// gateMult is the process-variation multiplier for one gate evaluation.
func gateMult(perturb func(gate int32) float64, gi int32) float64 {
	if perturb == nil {
		return 1
	}
	return perturb(gi)
}

// evalParallel evaluates one bucket into s.outs across n goroutines. Errors
// stay in s.outs for the commit to report in netlist order.
func (p *Compiled) evalParallel(bucket []int32, res *Result, s *evalScratch, n int, w walkOpts, levelName string) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tid int64) {
			defer wg.Done()
			// One span per worker per level, on the worker's own tid row:
			// the trace viewer shows the level's parallel shape — who worked,
			// who idled, who straggled.
			wspan := w.spans.Begin(w.pid, tid, "sta", levelName)
			gates := 0
			var evs []core.InputEvent
			for {
				k := int(next.Add(1) - 1)
				if k >= len(bucket) {
					if w.spans != nil {
						wspan.Arg("gates", gates).End()
					}
					return
				}
				s.outs[k] = evalGate(p.gateList[bucket[k]], res, w.mode, &evs, gateMult(w.perturb, bucket[k]))
				gates++
			}
		}(int64(i + 1))
	}
	wg.Wait()
}

// tally adds (sign 1) or withdraws (sign -1) one gate evaluation's raw
// output shape from the workload counters.
func (s *Stats) tally(raw dirArrivals, sign int) {
	for d := range raw.a {
		if !raw.has[d] {
			continue
		}
		s.Evaluations += sign
		if raw.a[d].UsedInputs > 1 {
			s.ProximityEvals += sign
		} else {
			s.SingleArcEvals += sign
		}
	}
	if raw.has[0] || raw.has[1] {
		s.GatesEvaluated += sign
	}
}
