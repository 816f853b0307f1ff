package sta

// The engine's BENCH records (BENCH_records.json, internal/benchrec) and
// the benchmarks behind them. Each record is one ratio of two timed sides
// measured seconds apart in one process, so machine-wide slowdowns cancel;
// each side is defined once below and run both by TestBench's measurement
// and by the Benchmark* function of the same name:
//
//	BENCH_GUARD=1 go test -run '^TestBench$' -v ./internal/sta/
//	BENCH_RECORD=delta go test -run '^TestBench$' -v ./internal/sta/
//	go test -run '^$' -bench 'SparseBatch|Delta|MC|PulseFilter|GlitchDelta' ./internal/sta/
//
// The package is sta, not sta_test, because the sparse record's reference
// side and the MC record's fresh-compile side need unexported entry points.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/benchrec"
	"repro/internal/waveform"
)

// The shared bench netlist: 240 independent 50-gate tiles (12k gates, 1920
// PIs). A tile-local vector touches 8 PIs — 0.42% of the inputs, the
// block-partitioned locality shape the event-driven walk is built for.
const (
	benchTiles        = 240
	benchPIsPerTile   = 8
	benchGatesPerTile = 50
	benchGates        = benchTiles * benchGatesPerTile
	benchPIs          = benchTiles * benchPIsPerTile
	mcSamples         = 1024
	mcSigma           = 0.03
)

var (
	benchOnce  sync.Once
	benchC     *Circuit
	benchRunts []PIEvent
	benchErr   error
)

// getTiledBench returns the shared tiled netlist.
func getTiledBench(tb testing.TB) *Circuit {
	tb.Helper()
	benchOnce.Do(func() {
		benchC, benchErr = SynthTiled(benchTiles, benchPIsPerTile, benchGatesPerTile, 17)
		if benchErr != nil {
			return
		}
		// The runt-heavy full stimulus: every PI fires, event times
		// compressed into a 160ps window with alternating directions, so
		// downstream gates see close opposite-edge pairs and the pulse
		// filter judges instead of fast-pathing.
		benchRunts = SynthEventsFor(benchC.PIs, 1)
		for i := range benchRunts {
			benchRunts[i].Time = float64(i%5) * 40e-12
			benchRunts[i].Dir = waveform.Rising
			if i%2 == 1 {
				benchRunts[i].Dir = waveform.Falling
			}
		}
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchC
}

// getGlitchBench returns the shared tiled netlist with its runt-heavy
// stimulus.
func getGlitchBench(tb testing.TB) (*Circuit, []PIEvent) {
	c := getTiledBench(tb) // builds benchRunts too
	return c, benchRunts
}

func compileBench(tb testing.TB, c *Circuit) *Compiled {
	tb.Helper()
	p, err := c.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// perOp is one op of body under testing.Benchmark, in seconds.
func perOp(body func(*testing.B)) float64 {
	r := testing.Benchmark(body)
	return r.T.Seconds() / float64(r.N)
}

// perturbOne returns evs with event i%len shifted by a few picoseconds —
// the single-PI re-timing query ECO sweeps are made of.
func perturbOne(evs []PIEvent, i int) ([]PIEvent, PIEvent) {
	k := i % len(evs)
	ev := evs[k]
	ev.Time += float64(i%7+1) * 1e-12
	out := append([]PIEvent(nil), evs...)
	out[k] = ev
	return out, ev
}

// sparseBatches returns the sparse record's two batch shapes: 32 tile-local
// vectors (cycling through the tiles) and 4 all-PI vectors, the saturated
// shape where the walk must not regress against the every-gate reference.
func sparseBatches(tb testing.TB, c *Circuit) (partial, full [][]PIEvent) {
	partial = make([][]PIEvent, 32)
	for i := range partial {
		pis := TilePIs(c, i%benchTiles)
		if len(pis) != benchPIsPerTile {
			tb.Fatalf("tile %d has %d PIs, want %d", i%benchTiles, len(pis), benchPIsPerTile)
		}
		partial[i] = SynthEventsFor(pis, int64(i))
	}
	full = make([][]PIEvent, 4)
	for i := range full {
		full[i] = SynthEvents(c, int64(i))
	}
	return partial, full
}

// sparseSide analyzes batch serially per op, through the propagation walk
// or through the every-gate reference walk (the record's "dense" side).
func sparseSide(c *Circuit, batch [][]PIEvent, dense bool) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !dense {
				if _, err := c.AnalyzeBatch(batch, Proximity, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
				continue
			}
			for _, evs := range batch {
				if _, err := c.analyzeReference(evs, Proximity, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(batch)*b.N)/b.Elapsed().Seconds(), "vectors/s")
	}
}

// deltaSides re-time single-PI nudges of evs on p under opt two ways: a
// full analysis of the edited vector ("full-sparse"), and AnalyzeDelta
// against the kept baseline ("delta").
func deltaSides(p *Compiled, evs []PIEvent, baseline *Result, opt Options) (full, delta func(*testing.B)) {
	ctx := context.Background()
	full = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited, _ := perturbOne(evs, i)
			if _, err := p.Analyze(ctx, edited, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	delta = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ev := perturbOne(evs, i)
			if _, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{ev}}, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	return full, delta
}

// analyzeSide analyzes evs on p under opt, once per op: the pulse filter
// record's "off"/"on" sides and the MC record's plain floor.
func analyzeSide(p *Compiled, evs []PIEvent, opt Options) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(context.Background(), evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// mcSide runs one 1024-sample AnalyzeMC of evs per op ("amortized-1024" at
// one worker).
func mcSide(p *Compiled, evs []PIEvent, workers int) func(*testing.B) {
	return func(b *testing.B) {
		opt := MCOptions{Samples: mcSamples, Seed: 5, Sigma: mcSigma}
		opt.Workers = workers
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(context.Background(), evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// freshSide is the naive statistical sample ("fresh-compile-per-sample"):
// levelize from scratch, defeating the circuit's compile memoization, then
// analyze once — the cost AnalyzeMC amortizes away.
func freshSide(c *Circuit, evs []PIEvent) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := c.compileFull(nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Analyze(context.Background(), evs, Proximity, Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// mcStimulus is the MC record's tile-local vector: the shape statistical
// sweeps run in practice, a small fanout while the compile cost spans the
// whole netlist.
func mcStimulus(c *Circuit) []PIEvent { return SynthEventsFor(TilePIs(c, 0), 1) }

// TestBench measures the engine's BENCH records: skipped unless BENCH_GUARD
// or BENCH_RECORD is set (see internal/benchrec).
func TestBench(t *testing.T) {
	benchrec.Run(t, "sparse", measureSparse)
	benchrec.Run(t, "delta", func(t *testing.T) map[string]float64 {
		m := measureDelta(t, SynthEvents(getTiledBench(t), 0), Options{Workers: 1})
		m["tiles"] = benchTiles
		return m
	})
	benchrec.Run(t, "mc", measureMC)
	benchrec.Run(t, "glitch", measureGlitch)
	benchrec.Run(t, "glitch_delta", func(t *testing.T) map[string]float64 {
		_, evs := getGlitchBench(t)
		return measureDelta(t, evs, Options{Workers: 1, PulseFiltering: true})
	})
}

// measureSparse: the walk against the every-gate reference. Bars: ≥3x on
// the tile-local batch, no regression (≥0.9x) on the full one.
func measureSparse(t *testing.T) map[string]float64 {
	c := getTiledBench(t)
	partial, full := sparseBatches(t, c)
	m := map[string]float64{
		"netlistGates": benchGates, "netlistPIs": benchPIs, "tiles": benchTiles,
		"partialPIsPerVector": benchPIsPerTile, "partialPIFraction": 1.0 / benchTiles,
		"partialVectors": float64(len(partial)), "fullVectors": float64(len(full)),
	}
	for _, s := range []struct {
		name  string
		batch [][]PIEvent
	}{{"partial", partial}, {"full", full}} {
		dense := perOp(sparseSide(c, s.batch, true)) / float64(len(s.batch))
		sparse := perOp(sparseSide(c, s.batch, false)) / float64(len(s.batch))
		m[s.name+"DenseSecPerVector"], m[s.name+"SparseSecPerVector"] = dense, sparse
		m[s.name+"Speedup"] = dense / sparse
	}
	return m
}

// measureDelta: single-PI delta re-timing against a full re-analysis of the
// edited vector. Bar: ≥5x, filtered or not — filtering must not cost the
// delta path its asymptotics.
func measureDelta(t *testing.T, evs []PIEvent, opt Options) map[string]float64 {
	p := compileBench(t, getTiledBench(t))
	ctx := context.Background()
	baseline, err := p.Analyze(ctx, evs, Proximity, opt)
	if err != nil {
		t.Fatal(err)
	}
	full, delta := deltaSides(p, evs, baseline, opt)
	fullSec, deltaSec := perOp(full), perOp(delta)
	_, ev := perturbOne(evs, 0)
	sample, err := p.AnalyzeDelta(ctx, baseline, Delta{Set: []PIEvent{ev}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{
		"netlistGates": benchGates, "netlistPIs": benchPIs,
		"fullSparseSecPerQuery": fullSec, "deltaSecPerQuery": deltaSec, "speedup": fullSec / deltaSec,
		"sampleGatesReevaluated": float64(sample.Stats.GatesReevaluated),
		"sampleGatesReused":      float64(sample.Stats.GatesReused),
	}
	if opt.PulseFiltering {
		m["pulsesFiltered"] = float64(baseline.Stats.PulsesFiltered)
		m["pulsesDegraded"] = float64(baseline.Stats.PulsesDegraded)
	}
	return m
}

// measureMC: AnalyzeMC's per-sample cost at 1024 samples against a fresh
// compile + analyze per sample, serial both sides so the ratio isolates
// amortization from parallelism. Bar: ≥20x.
func measureMC(t *testing.T) map[string]float64 {
	c := getTiledBench(t)
	evs := mcStimulus(c)
	p := compileBench(t, c)
	plain := perOp(analyzeSide(p, evs, Options{Workers: 1}))
	sample := perOp(mcSide(p, evs, 1)) / mcSamples
	fresh := perOp(freshSide(c, evs))
	return map[string]float64{
		"netlistGates": benchGates, "netlistPIs": benchPIs, "samples": mcSamples, "sigma": mcSigma,
		"plainAnalyzeSecPerVector": plain, "mcSecPerSample": sample, "perSampleOverhead": sample / plain,
		"freshCompileSecPerSample": fresh, "amortization": fresh / sample,
		"parallelSamplesPerSec": mcSamples / perOp(mcSide(p, evs, 0)),
	}
}

// measureGlitch: a filtered analyze of the runt-heavy vector against an
// unfiltered one on the same compile, isolating the verdict cost. Bars: ≤2x,
// and at least one pulse judged, so a filter that stopped judging reads as
// vacuous rather than fast.
func measureGlitch(t *testing.T) map[string]float64 {
	c, evs := getGlitchBench(t)
	p := compileBench(t, c)
	on := Options{Workers: 1, PulseFiltering: true}
	probe, err := p.Analyze(context.Background(), evs, Proximity, on)
	if err != nil {
		t.Fatal(err)
	}
	plain := perOp(analyzeSide(p, evs, Options{Workers: 1}))
	filtered := perOp(analyzeSide(p, evs, on))
	return map[string]float64{
		"netlistGates": benchGates, "netlistPIs": benchPIs,
		"pulsesFiltered": float64(probe.Stats.PulsesFiltered), "pulsesDegraded": float64(probe.Stats.PulsesDegraded),
		"plainSecPerVector": plain, "filteredSecPerVector": filtered, "filterOverhead": filtered / plain,
	}
}

func BenchmarkSparseBatch(b *testing.B) {
	b.ReportAllocs()
	c := getTiledBench(b)
	partial, full := sparseBatches(b, c)
	for _, s := range []struct {
		name  string
		batch [][]PIEvent
	}{{"partial", partial}, {"full", full}} {
		b.Run("stimulus="+s.name+"/sched=dense", sparseSide(c, s.batch, true))
		b.Run("stimulus="+s.name+"/sched=sparse", sparseSide(c, s.batch, false))
	}
}

func BenchmarkDelta(b *testing.B) {
	b.ReportAllocs()
	benchDelta(b, SynthEvents(getTiledBench(b), 0), Options{Workers: 1})
}

func BenchmarkGlitchDelta(b *testing.B) {
	_, evs := getGlitchBench(b)
	benchDelta(b, evs, Options{Workers: 1, PulseFiltering: true})
}

func benchDelta(b *testing.B, evs []PIEvent, opt Options) {
	p := compileBench(b, getTiledBench(b))
	baseline, err := p.Analyze(context.Background(), evs, Proximity, opt)
	if err != nil {
		b.Fatal(err)
	}
	full, delta := deltaSides(p, evs, baseline, opt)
	b.Run("full-sparse", full)
	b.Run("delta", delta)
}

func BenchmarkMC(b *testing.B) {
	b.ReportAllocs()
	c := getTiledBench(b)
	evs := mcStimulus(c)
	p := compileBench(b, c)
	b.Run("amortized-1024", mcSide(p, evs, 1))
	b.Run("fresh-compile-per-sample", freshSide(c, evs))
}

func BenchmarkPulseFilter(b *testing.B) {
	c, evs := getGlitchBench(b)
	p := compileBench(b, c)
	b.Run("off", analyzeSide(p, evs, Options{Workers: 1}))
	b.Run("on", analyzeSide(p, evs, Options{Workers: 1, PulseFiltering: true}))
}
