package sta

// Monte-Carlo benchmark: the subsystem's reason to exist is amortization —
// one compile reused across thousands of samples. The
// recorded number is the ratio between the naive statistical loop (fresh
// compile + analyze per sample, what a caller without AnalyzeMC would
// write) and AnalyzeMC's per-sample cost at 1024 samples, both serial so
// the ratio isolates amortization from parallelism. This file lives in
// package sta (not sta_test) because the naive side needs compileFull to
// defeat the circuit-level compile memoization.

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

const (
	mcBenchTiles        = 240
	mcBenchPIsPerTile   = 8
	mcBenchGatesPerTile = 50
	mcBenchSamples      = 1024
	mcBenchSigma        = 0.03
)

var (
	mcBenchOnce sync.Once
	mcBenchC    *Circuit
	mcBenchErr  error
)

// getMCBench returns the shared tiled netlist with a tile-local stimulus:
// the shape statistical sweeps run in practice — a partial vector whose
// fanout is small while the compile cost spans the whole netlist.
func getMCBench(tb testing.TB) (*Circuit, []PIEvent) {
	tb.Helper()
	mcBenchOnce.Do(func() {
		mcBenchC, mcBenchErr = SynthTiled(mcBenchTiles, mcBenchPIsPerTile, mcBenchGatesPerTile, 17)
	})
	if mcBenchErr != nil {
		tb.Fatal(mcBenchErr)
	}
	return mcBenchC, SynthEventsFor(TilePIs(mcBenchC, 0), 1)
}

// freshCompileAnalyze is the naive statistical sample: levelize from
// scratch, then analyze once — the cost AnalyzeMC amortizes away.
func freshCompileAnalyze(ctx context.Context, c *Circuit, evs []PIEvent) error {
	p, err := c.compileFull(nil)
	if err != nil {
		return err
	}
	_, err = p.Analyze(ctx, evs, Proximity, Options{Workers: 1})
	return err
}

func BenchmarkMC(b *testing.B) {
	b.ReportAllocs()
	c, evs := getMCBench(b)
	p, err := c.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("amortized-1024", func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-compile-per-sample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := freshCompileAnalyze(ctx, c, evs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mcBenchResult is the BENCH_mc.json schema.
type mcBenchResult struct {
	Timestamp    string  `json:"timestamp"`
	NetlistGates int     `json:"netlistGates"`
	NetlistPIs   int     `json:"netlistPIs"`
	Samples      int     `json:"samples"`
	Sigma        float64 `json:"sigma"`

	// PlainAnalyzeSecPerVector is a deterministic serial analyze on the
	// reused compile — the floor a perturbed sample is measured against.
	PlainAnalyzeSecPerVector float64 `json:"plainAnalyzeSecPerVector"`
	// MCSecPerSample is AnalyzeMC's serial per-sample cost at 1024 samples.
	MCSecPerSample float64 `json:"mcSecPerSample"`
	// PerSampleOverhead = MCSecPerSample / PlainAnalyzeSecPerVector: what a
	// perturbed, aggregated, criticality-traced sample costs relative to a
	// plain analyze of the same vector.
	PerSampleOverhead float64 `json:"perSampleOverhead"`
	// FreshCompileSecPerSample is the naive loop's per-sample cost.
	FreshCompileSecPerSample float64 `json:"freshCompileSecPerSample"`
	// Amortization = FreshCompileSecPerSample / MCSecPerSample (serial both
	// sides; the acceptance bar is 20x).
	Amortization float64 `json:"amortization"`
	// ParallelSamplesPerSec is the throughput with the default worker pool.
	ParallelSamplesPerSec float64 `json:"parallelSamplesPerSec"`
}

// TestWriteMCBench regenerates BENCH_mc.json when BENCH_MC_OUT names the
// output path (skipped in normal test runs):
//
//	BENCH_MC_OUT=$(pwd)/BENCH_mc.json go test -run TestWriteMCBench ./internal/sta/
//
// Acceptance bar: AnalyzeMC at 1024 samples amortizes the compile+schedule
// cost at least 20x over running a fresh-compile analyze per sample.
func TestWriteMCBench(t *testing.T) {
	out := os.Getenv("BENCH_MC_OUT")
	if out == "" {
		t.Skip("set BENCH_MC_OUT to regenerate BENCH_mc.json")
	}
	c, evs := getMCBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	plain := testing.Benchmark(func(b *testing.B) {
		opt := Options{Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := p.Analyze(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	serialMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	naive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := freshCompileAnalyze(ctx, c, evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	parallelMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	res := mcBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: mcBenchTiles * mcBenchGatesPerTile,
		NetlistPIs:   mcBenchTiles * mcBenchPIsPerTile,
		Samples:      mcBenchSamples,
		Sigma:        mcBenchSigma,

		PlainAnalyzeSecPerVector: plain.T.Seconds() / float64(plain.N),
		MCSecPerSample:           serialMC.T.Seconds() / float64(serialMC.N) / mcBenchSamples,
		FreshCompileSecPerSample: naive.T.Seconds() / float64(naive.N),
		ParallelSamplesPerSec:    float64(parallelMC.N) * mcBenchSamples / parallelMC.T.Seconds(),
	}
	res.PerSampleOverhead = res.MCSecPerSample / res.PlainAnalyzeSecPerVector
	res.Amortization = res.FreshCompileSecPerSample / res.MCSecPerSample

	if res.Amortization < 20 {
		t.Errorf("MC amortization %.1fx over fresh-compile-per-sample, acceptance bar is 20x", res.Amortization)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("mc %.1fx amortization (%.3gs naive vs %.3gs/sample), %.2fx per-sample overhead, %.0f samples/s parallel; wrote %s",
		res.Amortization, res.FreshCompileSecPerSample, res.MCSecPerSample,
		res.PerSampleOverhead, res.ParallelSamplesPerSec, out)
}

// TestBenchGuardMC compares today's MC amortization ratio against the
// recorded BENCH_mc.json, gated behind BENCH_GUARD=1 like the other guards.
// Both sides of the ratio are measured seconds apart in one process, so
// machine-wide slowdowns cancel; margin via BENCH_GUARD_MARGIN (default
// 1.25x).
func TestBenchGuardMC(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_mc.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_mc.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base mcBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.Amortization <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	c, evs := getMCBench(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serialMC := testing.Benchmark(func(b *testing.B) {
		opt := MCOptions{Samples: mcBenchSamples, Seed: 5, Sigma: mcBenchSigma}
		opt.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeMC(ctx, evs, Proximity, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	naive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := freshCompileAnalyze(ctx, c, evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	perSample := serialMC.T.Seconds() / float64(serialMC.N) / mcBenchSamples
	naivePerSample := naive.T.Seconds() / float64(naive.N)
	amort := naivePerSample / perSample
	t.Logf("mc amortization %.1fx = fresh compile+analyze %.3g ms / amortized %.3g ms per sample (baseline %.1fx)",
		amort, naivePerSample*1e3, perSample*1e3, base.Amortization)
	if amort*margin < base.Amortization {
		t.Errorf("MC amortization fell to %.1fx from the recorded %.1fx (margin %.2f) — per-sample overhead crept in",
			amort, base.Amortization, margin)
	}
}
