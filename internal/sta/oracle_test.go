package sta_test

// Kernel oracles: the event-driven propagation walk against the every-gate
// reference walk (sta.AnalyzeReference, test-only) over the difftest
// harness's seeded configurations. The walk visits only gates whose inputs
// received an arrival; the reference visits every gate of every level. Both
// must agree bit for bit — arrivals, workload counters, pulse verdicts —
// and the walk must schedule exactly the gates it evaluates.

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sta"
	"repro/internal/waveform"
)

// nOracleConfigs is the seeded configuration budget each oracle sweeps, the
// same budget the internal/difftest oracles use.
const nOracleConfigs = 120

type oracleVector struct {
	label  string
	events []service.Event
}

// oracleVectors are the two stimulus shapes every kernel oracle runs: a
// full-activity vector and a partial one (about a quarter of the inputs),
// where the walk and the reference schedule genuinely different gate sets.
func oracleVectors(cfg difftest.Config, c *sta.Circuit) []oracleVector {
	return []oracleVector{
		{"full", cfg.WireVector(c, 0)},
		{"partial", cfg.PartialWireVector(c, 1)},
	}
}

// TestOracleSparseVsDense: the propagation walk must be bit-identical to the
// every-gate reference on every config, for both a full-activity vector and
// a partial one. The sweep also proves itself non-vacuous: across the
// partial vectors the walk must schedule strictly fewer gates than the
// reference in aggregate, or the event-driven schedule never engaged.
func TestOracleSparseVsDense(t *testing.T) {
	var scheduledSparse, scheduledDense int
	for _, cfg := range difftest.Configs(nOracleConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		for _, vec := range oracleVectors(cfg, c) {
			evs, err := difftest.ToPIEvents(c, vec.events)
			if err != nil {
				t.Fatalf("%s/%s: events: %v", cfg.Name, vec.label, err)
			}
			dense, err := sta.AnalyzeReference(c, evs, cfg.Mode, sta.Options{})
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", cfg.Name, vec.label, err)
			}
			sparse, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 4})
			if err != nil {
				t.Fatalf("%s/%s: walk: %v", cfg.Name, vec.label, err)
			}
			if err := difftest.DiffExact(difftest.Arrivals(c, dense), difftest.Arrivals(c, sparse), nil); err != nil {
				t.Errorf("%s/%s: walk diverges from reference: %v", cfg.Name, vec.label, err)
			}
			if sparse.Stats.GatesEvaluated != dense.Stats.GatesEvaluated {
				t.Errorf("%s/%s: walk evaluated %d gates, reference %d — the schedule changed the work",
					cfg.Name, vec.label, sparse.Stats.GatesEvaluated, dense.Stats.GatesEvaluated)
			}
			if vec.label == "partial" {
				scheduledSparse += sparse.Stats.GatesScheduled
				scheduledDense += dense.Stats.GatesScheduled
			}
		}
	}
	if scheduledSparse >= scheduledDense {
		t.Fatalf("walk scheduled %d gates vs reference %d on partial vectors — the event-driven schedule never engaged, oracle vacuous",
			scheduledSparse, scheduledDense)
	}
}

// TestOracleZeroConeStimulus: stimulating only primary inputs with no
// fanout at all must succeed with an empty schedule — the stimulated PIs'
// own arrivals and nothing else. Run against a circuit where one PI drives
// gates and one drives nothing, through the walk and the reference.
func TestOracleZeroConeStimulus(t *testing.T) {
	c, _, out, err := sta.SynthChain(8)
	if err != nil {
		t.Fatal(err)
	}
	dangling := c.Input("dangling")
	evs := []sta.PIEvent{{Net: dangling, Dir: waveform.Rising, Time: 0, TT: 250e-12}}
	for _, run := range []struct {
		name    string
		analyze func() (*sta.Result, error)
	}{
		{"walk", func() (*sta.Result, error) { return c.AnalyzeOpts(evs, sta.Proximity, sta.Options{Workers: 1}) }},
		{"reference", func() (*sta.Result, error) { return sta.AnalyzeReference(c, evs, sta.Proximity, sta.Options{}) }},
	} {
		res, err := run.analyze()
		if err != nil {
			t.Fatalf("%s: zero-fanout stimulus errored: %v", run.name, err)
		}
		if res.Stats.GatesEvaluated != 0 {
			t.Fatalf("%s: evaluated %d gates with no reachable fanout", run.name, res.Stats.GatesEvaluated)
		}
		if _, ok := res.Latest(out); ok {
			t.Fatalf("%s: unreachable output carries an arrival", run.name)
		}
		if _, ok := res.Arrival(dangling, waveform.Rising); !ok {
			t.Fatalf("%s: stimulated PI lost its arrival", run.name)
		}
		if run.name == "walk" && res.Stats.GatesScheduled != 0 {
			t.Fatalf("walk scheduled %d gates for an input with no fanout, want 0", res.Stats.GatesScheduled)
		}
	}
}

// TestOracleStatsSparseVsDense: the workload counters in Result.Stats are
// part of the observable contract — the service aggregates them into
// /metrics — so the walk must report exactly the work the reference does.
// GatesScheduled is the one legitimate difference: the walk schedules a gate
// only when an input received an arrival, so it must equal GatesEvaluated.
// The always-on phase timers must be internally consistent (non-negative,
// disjoint sum bounded by the measured wall) on every config.
func TestOracleStatsSparseVsDense(t *testing.T) {
	checkPhases := func(label string, s sta.Stats) {
		t.Helper()
		for _, p := range obs.Phases() {
			if s.Phases[p] < 0 {
				t.Fatalf("%s: phase %v negative: %v", label, p, s.Phases[p])
			}
		}
		if s.Wall <= 0 {
			t.Fatalf("%s: wall = %v", label, s.Wall)
		}
		if sum := s.Phases.Sum(); sum > s.Wall {
			t.Fatalf("%s: phase sum %v exceeds wall %v", label, sum, s.Wall)
		}
	}
	for _, cfg := range difftest.Configs(nOracleConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		for _, vec := range oracleVectors(cfg, c) {
			evs, err := difftest.ToPIEvents(c, vec.events)
			if err != nil {
				t.Fatalf("%s/%s: events: %v", cfg.Name, vec.label, err)
			}
			dense, err := sta.AnalyzeReference(c, evs, cfg.Mode, sta.Options{})
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", cfg.Name, vec.label, err)
			}
			sparse, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s/%s: walk: %v", cfg.Name, vec.label, err)
			}
			d, s := dense.Stats, sparse.Stats
			if d.GatesEvaluated != s.GatesEvaluated ||
				d.Evaluations != s.Evaluations ||
				d.ProximityEvals != s.ProximityEvals ||
				d.SingleArcEvals != s.SingleArcEvals ||
				d.Levels != s.Levels {
				t.Errorf("%s/%s: stats diverge reference vs walk:\n"+
					"  gatesEvaluated %d/%d evaluations %d/%d proximity %d/%d singleArc %d/%d levels %d/%d",
					cfg.Name, vec.label,
					d.GatesEvaluated, s.GatesEvaluated, d.Evaluations, s.Evaluations,
					d.ProximityEvals, s.ProximityEvals, d.SingleArcEvals, s.SingleArcEvals,
					d.Levels, s.Levels)
			}
			if s.GatesScheduled != s.GatesEvaluated {
				t.Errorf("%s/%s: walk scheduled %d gates but evaluated %d", cfg.Name, vec.label, s.GatesScheduled, s.GatesEvaluated)
			}
			checkPhases(cfg.Name+"/"+vec.label+"/reference", d)
			checkPhases(cfg.Name+"/"+vec.label+"/walk", s)
		}
	}
}

// TestOracleGlitchScheduleIdentity: with pulse filtering on, the walk at
// one and eight workers and the every-gate reference must produce
// bit-identical arrivals and equal verdict counters on every config, for
// full and partial vectors. The walk must also schedule exactly the gates
// it evaluates: gates downstream of an absorbed pair receive no arrival, so
// the walk never reaches them.
func TestOracleGlitchScheduleIdentity(t *testing.T) {
	judged := 0
	for _, cfg := range difftest.Configs(nOracleConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		for _, vec := range oracleVectors(cfg, c) {
			evs, err := difftest.ToPIEvents(c, vec.events)
			if err != nil {
				t.Fatalf("%s/%s: events: %v", cfg.Name, vec.label, err)
			}
			ref, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 1, PulseFiltering: true})
			if err != nil {
				t.Fatalf("%s/%s: walk serial: %v", cfg.Name, vec.label, err)
			}
			for _, alt := range []struct {
				name    string
				analyze func() (*sta.Result, error)
			}{
				{"reference", func() (*sta.Result, error) {
					return sta.AnalyzeReference(c, evs, cfg.Mode, sta.Options{PulseFiltering: true})
				}},
				{"walk parallel", func() (*sta.Result, error) {
					return c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 8, PulseFiltering: true})
				}},
			} {
				got, err := alt.analyze()
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", cfg.Name, vec.label, alt.name, err)
				}
				if err := difftest.DiffExact(difftest.Arrivals(c, ref), difftest.Arrivals(c, got), nil); err != nil {
					t.Errorf("%s/%s: %s diverges from walk serial: %v", cfg.Name, vec.label, alt.name, err)
				}
				if got.Stats.PulsesFiltered != ref.Stats.PulsesFiltered ||
					got.Stats.PulsesDegraded != ref.Stats.PulsesDegraded {
					t.Errorf("%s/%s: %s counters (%d,%d) != walk serial (%d,%d)", cfg.Name, vec.label, alt.name,
						got.Stats.PulsesFiltered, got.Stats.PulsesDegraded,
						ref.Stats.PulsesFiltered, ref.Stats.PulsesDegraded)
				}
			}
			if ref.Stats.GatesScheduled != ref.Stats.GatesEvaluated {
				t.Errorf("%s/%s: walk scheduled %d gates but evaluated %d", cfg.Name, vec.label,
					ref.Stats.GatesScheduled, ref.Stats.GatesEvaluated)
			}
			judged += ref.Stats.PulsesFiltered + ref.Stats.PulsesDegraded
		}
	}
	if judged == 0 {
		t.Fatal("no pulse judged across the whole sweep — oracle is vacuous")
	}
}
