package sta_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// maxAllocsPerAnalyze bounds the heap objects one full-activity serial
// analysis may allocate once the walk scratch is pooled: the Result, its
// net index, its right-sized arrival slab and a few per-walk slices. The
// bound does not depend on the gate count; per-gate evaluation allocates
// nothing.
const maxAllocsPerAnalyze = 10

// TestAnalyzeAllocsIndependentOfGates: a full serial analysis allocates a
// small constant number of objects whether the netlist has 1000 or 4000
// gates, so allocation (and GC work) does not scale with evaluations.
func TestAnalyzeAllocsIndependentOfGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, gates := range []int{1000, 4000} {
		c, err := sta.SynthRandom(64, gates, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		evs := sta.SynthEvents(c, 1)
		ctx := context.Background()
		opt := sta.Options{Workers: 1}
		var runErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := p.Analyze(ctx, evs, sta.Proximity, opt); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if allocs > maxAllocsPerAnalyze {
			t.Errorf("%d gates: full serial analysis allocates %.1f objects, want <= %d", gates, allocs, maxAllocsPerAnalyze)
		}
	}
}

// TestEvaluateAllocFree: the proximity evaluation runs once per gate output
// arc, so it must not allocate at the library's fan-ins.
func TestEvaluateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	calc := sta.SynthLibrary(3).Get("nand3")
	const ps = 1e-12
	for _, evs := range [][]core.InputEvent{
		{{Pin: 0, Dir: waveform.Falling, TT: 300 * ps, Cross: 0}},
		{{Pin: 0, Dir: waveform.Rising, TT: 250 * ps, Cross: 0}, {Pin: 1, Dir: waveform.Rising, TT: 300 * ps, Cross: 30 * ps}},
		{{Pin: 0, Dir: waveform.Falling, TT: 200 * ps, Cross: 0}, {Pin: 1, Dir: waveform.Falling, TT: 350 * ps, Cross: 20 * ps},
			{Pin: 2, Dir: waveform.Falling, TT: 280 * ps, Cross: 45 * ps}},
	} {
		var runErr error
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := calc.Evaluate(evs); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if allocs != 0 {
			t.Errorf("%d-input nand3 Evaluate allocates %.1f objects, want 0", len(evs), allocs)
		}
	}
}
