package sta_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/macromodel"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// requireIdenticalResults asserts two analyses agree arrival-for-arrival on
// every net of the circuit — presence, time, transition time, dominant pin
// and proximity fan-in, compared bit-exactly.
func requireIdenticalResults(t *testing.T, c *sta.Circuit, want, got *sta.Result, label string) {
	t.Helper()
	compared := 0
	for _, name := range c.NetsByName() {
		n := c.Net(name)
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			wa, wok := want.Arrival(n, dir)
			ga, gok := got.Arrival(n, dir)
			if wok != gok {
				t.Fatalf("%s: net %s %v: present=%v reference, %v walk", label, name, dir, wok, gok)
			}
			if !wok {
				continue
			}
			compared++
			if wa.Time != ga.Time || wa.TT != ga.TT || wa.FromPin != ga.FromPin || wa.UsedInputs != ga.UsedInputs {
				t.Fatalf("%s: net %s %v: reference (%v, %v, pin %d, used %d) vs walk (%v, %v, pin %d, used %d)",
					label, name, dir, wa.Time, wa.TT, wa.FromPin, wa.UsedInputs,
					ga.Time, ga.TT, ga.FromPin, ga.UsedInputs)
			}
		}
	}
	if compared == 0 {
		t.Fatalf("%s: no arrivals compared — vacuous", label)
	}
}

// TestSparseMatchesDense is the engine-local half of the walk-vs-reference
// contract (oracle_test.go carries the 120-config oracle): on a random DAG
// with a partial stimulus, the event-driven walk must produce bit-identical
// arrivals to the every-gate reference while actually scheduling fewer
// gates.
func TestSparseMatchesDense(t *testing.T) {
	c, err := sta.SynthRandom(96, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pis  []*sta.Net
	}{
		{"partial", c.PIs[:3]},
		{"full", c.PIs},
	} {
		evs := sta.SynthEventsFor(tc.pis, 11)
		for _, mode := range []sta.Mode{sta.Proximity, sta.Conventional} {
			dense, err := sta.AnalyzeReference(c, evs, mode, sta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				sparse, err := c.AnalyzeOpts(evs, mode, sta.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				label := tc.name + "/" + mode.String()
				requireIdenticalResults(t, c, dense, sparse, label)
				// The eval-side stats must agree exactly; only the schedule
				// sizes may differ, and on the partial stimulus they must.
				// The walk schedules exactly the gates it evaluates.
				if sparse.Stats.GatesEvaluated != dense.Stats.GatesEvaluated ||
					sparse.Stats.Evaluations != dense.Stats.Evaluations ||
					sparse.Stats.ProximityEvals != dense.Stats.ProximityEvals {
					t.Fatalf("%s: eval stats diverge: sparse %+v dense %+v", label, sparse.Stats, dense.Stats)
				}
				if sparse.Stats.GatesScheduled != sparse.Stats.GatesEvaluated {
					t.Fatalf("%s: walk scheduled %d gates but evaluated %d", label, sparse.Stats.GatesScheduled, sparse.Stats.GatesEvaluated)
				}
				if sparse.Stats.GatesScheduled > dense.Stats.GatesScheduled {
					t.Fatalf("%s: sparse scheduled %d > dense %d", label, sparse.Stats.GatesScheduled, dense.Stats.GatesScheduled)
				}
				if tc.name == "partial" && sparse.Stats.GatesScheduled >= dense.Stats.GatesScheduled {
					t.Fatalf("%s: sparse scheduled %d of %d — pruning never kicked in, test is vacuous",
						label, sparse.Stats.GatesScheduled, dense.Stats.GatesScheduled)
				}
			}
		}
	}
}

// TestSparseBatchMatchesDense runs the same partial-stimulus batch through
// the batch walk and, vector by vector, the every-gate reference over one
// shared compilation.
func TestSparseBatchMatchesDense(t *testing.T) {
	c, err := sta.SynthTiled(6, 6, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]sta.PIEvent
	for tile := 0; tile < 6; tile++ {
		batch = append(batch, sta.SynthEventsFor(sta.TilePIs(c, tile), int64(tile)))
	}
	sparse, err := c.AnalyzeBatch(batch, sta.Proximity, sta.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batch {
		dense, err := sta.AnalyzeReference(c, evs, sta.Proximity, sta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, c, dense, sparse[i], "vector")
	}
}

// TestSparseCriticalPathAcrossPrunedCones stimulates one tile of a
// block-partitioned circuit and traces the critical path through the
// result: the indexed arrival store must support path tracing even though
// every other tile was pruned from the schedule, and the pruned tiles'
// outputs must carry no arrivals at all.
func TestSparseCriticalPathAcrossPrunedCones(t *testing.T) {
	c, err := sta.SynthTiled(5, 8, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	const tile = 2
	evs := sta.SynthEventsFor(sta.TilePIs(c, tile), 21)
	res, err := c.AnalyzeOpts(evs, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, po := range c.POs {
		arr, ok := res.Latest(po)
		if !strings.HasPrefix(po.Name, "t2_") {
			if ok {
				t.Fatalf("pruned tile's output %s carries an arrival (%v)", po.Name, arr)
			}
			continue
		}
		if !ok {
			continue // a stimulated tile's PO may legitimately stay silent
		}
		path, err := res.CriticalPath(po, arr.Dir)
		if err != nil {
			t.Fatalf("CriticalPath(%s, %v): %v", po.Name, arr.Dir, err)
		}
		if len(path) < 2 {
			t.Fatalf("path to %s has %d stages, want >= 2", po.Name, len(path))
		}
		if first := path[0].Net; !strings.HasPrefix(first.Name, "t2_p") {
			t.Fatalf("path to %s starts at %s, want a t2 primary input", po.Name, first.Name)
		}
		for _, st := range path {
			if !strings.HasPrefix(st.Net.Name, "t2_") {
				t.Fatalf("path to %s crosses into another tile at %s", po.Name, st.Net.Name)
			}
		}
		traced++
	}
	if traced == 0 {
		t.Fatal("no critical path traced in the stimulated tile — vacuous")
	}
}

// TestSparseZeroConeStimulus: an event on a primary input that drives no
// gate reaches nothing. The analysis must succeed with zero gates scheduled
// — the PI's own arrival present, everything else silent — not error out
// or fall back to a full walk.
func TestSparseZeroConeStimulus(t *testing.T) {
	lib := sta.NewLibrary()
	lib.Add("inv", core.NewCalculator(macromodel.SynthModel("inv", 1)))
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	unused := c.Input("unused")
	x, err := c.AddGate("g1", "inv", "x", a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	res, err := c.AnalyzeOpts([]sta.PIEvent{
		{Net: unused, Dir: waveform.Rising, Time: 0, TT: 200e-12},
	}, sta.Proximity, sta.Options{Workers: 1})
	if err != nil {
		t.Fatalf("zero-cone stimulus errored: %v", err)
	}
	if res.Stats.GatesScheduled != 0 || res.Stats.GatesEvaluated != 0 {
		t.Fatalf("scheduled %d / evaluated %d gates for an unconnected input, want 0 / 0",
			res.Stats.GatesScheduled, res.Stats.GatesEvaluated)
	}
	if _, ok := res.Arrival(unused, waveform.Rising); !ok {
		t.Fatal("stimulated PI lost its own arrival")
	}
	if _, ok := res.Latest(x); ok {
		t.Fatal("unstimulated gate output carries an arrival")
	}
}

// TestConventionalErrorContext cripples a model — pin 1 loses its
// single-input tables — and requires the Conventional-mode error to name
// the gate, the output direction, the failing pin, its net and the input
// direction, matching the context the proximity path's errors carry.
func TestConventionalErrorContext(t *testing.T) {
	m := macromodel.SynthModel("nand", 2)
	kept := m.Singles[:0]
	for _, s := range m.Singles {
		if s.Pin != 1 {
			kept = append(kept, s)
		}
	}
	m.Singles = kept

	lib := sta.NewLibrary()
	lib.Add("nand2", core.NewCalculator(m))
	c := sta.NewCircuit(lib)
	a, b := c.Input("a"), c.Input("b")
	x, err := c.AddGate("g1", "nand2", "x", a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	_, err = c.Analyze([]sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 200e-12},
		{Net: b, Dir: waveform.Falling, Time: 10e-12, TT: 200e-12},
	}, sta.Conventional)
	if err == nil {
		t.Fatal("crippled pin evaluated without error")
	}
	for _, want := range []string{"gate g1", "rising output", "pin 1", "net b", "falling"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestConventionalNaNDelayRejected: when every single-input arc of a gate
// yields a non-comparable (NaN) delay, Conventional mode must error rather
// than return a zero-FromGate arrival that breaks path tracing downstream.
func TestConventionalNaNDelayRejected(t *testing.T) {
	m := macromodel.SynthModel("inv", 1)
	for _, s := range m.Singles {
		for i := range s.Delay {
			s.Delay[i] = math.NaN()
		}
	}
	lib := sta.NewLibrary()
	lib.Add("inv", core.NewCalculator(m))
	c := sta.NewCircuit(lib)
	a := c.Input("a")
	x, err := c.AddGate("g1", "inv", "x", a)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkOutput(x)

	_, err = c.Analyze([]sta.PIEvent{
		{Net: a, Dir: waveform.Falling, Time: 0, TT: 200e-12},
	}, sta.Conventional)
	if err == nil {
		t.Fatal("NaN single-arc delay produced an arrival")
	}
	for _, want := range []string{"gate g1", "no finite single-arc delay"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
