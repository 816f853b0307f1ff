package sta_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// TestBenchGuardSparse compares today's partial-activity batch performance
// (tracing disabled — the always-on phase timers are part of the product)
// against the recorded BENCH_sparse.json baseline. Gated behind BENCH_GUARD=1 so
// ordinary test runs stay fast and timing-noise-free.
//
// The enforced number is the partial-stimulus *speedup* of the propagation
// walk over the every-gate reference (the "dense" side of the record): both
// sides are measured in the same process seconds apart, so machine-wide
// slowdowns (shared CI runners, background load, frequency scaling) cancel
// out, unlike the absolute sec/vector — which is still measured and logged
// against the baseline for the record. The speedup must stay within
// BENCH_GUARD_MARGIN (default 1.25x slack; local acceptance runs use a
// tighter one):
//
//	BENCH_GUARD=1 BENCH_GUARD_MARGIN=1.05 go test -run TestBenchGuardSparse ./internal/sta/
func TestBenchGuardSparse(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to compare against BENCH_sparse.json")
	}
	margin := 1.25
	if s := os.Getenv("BENCH_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad BENCH_GUARD_MARGIN %q: %v", s, err)
		}
		margin = m
	}
	data, err := os.ReadFile("../../BENCH_sparse.json")
	if err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	var base struct {
		PartialSparseSecPerV float64 `json:"partialSparseSecPerVector"`
		PartialSpeedup       float64 `json:"partialSpeedup"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.PartialSparseSecPerV <= 0 || base.PartialSpeedup <= 0 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	c := getTiledBench(t)
	partial := tiledBatch(t, c, 32)
	denseSec := secPerVector(c, partial, true)
	sparseSec := secPerVector(c, partial, false)
	speedup := denseSec / sparseSec

	t.Logf("walk %.3gs/vector (baseline %.3gs, abs ratio %.2f); speedup %.2fx (baseline %.2fx)",
		sparseSec, base.PartialSparseSecPerV, sparseSec/base.PartialSparseSecPerV,
		speedup, base.PartialSpeedup)
	if speedup*margin < base.PartialSpeedup {
		t.Errorf("walk speedup fell to %.2fx from the recorded %.2fx (margin %.2f) — scheduling overhead crept into the hot path",
			speedup, base.PartialSpeedup, margin)
	}
}
