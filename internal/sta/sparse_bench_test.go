package sta_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/sta"
)

// The sparse-scheduling benchmark netlist: 240 independent 50-gate tiles
// (12k gates total, 1920 PIs). A tile-local stimulus vector touches 8 PIs —
// 0.42% of the inputs — the block-partitioned locality shape the
// event-driven walk is built for; the every-gate reference visits all 240
// tiles regardless.
const (
	benchTiles        = 240
	benchPIsPerTile   = 8
	benchGatesPerTile = 50
)

var (
	tiledOnce sync.Once
	tiledC    *sta.Circuit
	tiledErr  error
)

func getTiledBench(tb testing.TB) *sta.Circuit {
	tb.Helper()
	tiledOnce.Do(func() {
		tiledC, tiledErr = sta.SynthTiled(benchTiles, benchPIsPerTile, benchGatesPerTile, 17)
	})
	if tiledErr != nil {
		tb.Fatal(tiledErr)
	}
	return tiledC
}

// tiledBatch builds n stimulus vectors, each confined to one tile (cycling
// through the tiles), the partial-activity batch shape.
func tiledBatch(tb testing.TB, c *sta.Circuit, n int) [][]sta.PIEvent {
	tb.Helper()
	batch := make([][]sta.PIEvent, n)
	for i := range batch {
		pis := sta.TilePIs(c, i%benchTiles)
		if len(pis) != benchPIsPerTile {
			tb.Fatalf("tile %d has %d PIs, want %d", i%benchTiles, len(pis), benchPIsPerTile)
		}
		batch[i] = sta.SynthEventsFor(pis, int64(i))
	}
	return batch
}

// fullBatch builds n all-PI stimulus vectors — the saturated shape where
// the walk must not regress against the every-gate reference.
func fullBatch(c *sta.Circuit, n int) [][]sta.PIEvent {
	batch := make([][]sta.PIEvent, n)
	for i := range batch {
		batch[i] = sta.SynthEvents(c, int64(i))
	}
	return batch
}

// secPerVector measures one batch's per-vector wall time, serially, through
// the propagation walk or (reference) the every-gate reference walk.
func secPerVector(c *sta.Circuit, batch [][]sta.PIEvent, reference bool) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runBatch(b, c, batch, reference)
		}
	})
	return r.T.Seconds() / float64(r.N) / float64(len(batch))
}

// runBatch analyzes a batch serially through the walk or the reference.
func runBatch(b *testing.B, c *sta.Circuit, batch [][]sta.PIEvent, reference bool) {
	if !reference {
		if _, err := c.AnalyzeBatch(batch, sta.Proximity, sta.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		return
	}
	for _, evs := range batch {
		if _, err := sta.AnalyzeReference(c, evs, sta.Proximity, sta.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseBatch compares the every-gate reference walk against the
// event-driven propagation walk on the tiled netlist, for both a tile-local
// (partial) batch and an all-PI (full) batch. The partial/dense vs
// partial/sparse pair is the headline number recorded in BENCH_sparse.json
// ("dense" is the reference, "sparse" the walk).
func BenchmarkSparseBatch(b *testing.B) {
	b.ReportAllocs()
	c := getTiledBench(b)
	for _, stim := range []struct {
		name  string
		batch [][]sta.PIEvent
	}{
		{"partial", tiledBatch(b, c, 16)},
		{"full", fullBatch(c, 4)},
	} {
		for _, sched := range []struct {
			name  string
			dense bool
		}{
			{"dense", true},
			{"sparse", false},
		} {
			b.Run(fmt.Sprintf("stimulus=%s/sched=%s", stim.name, sched.name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runBatch(b, c, stim.batch, sched.dense)
				}
				b.ReportMetric(float64(len(stim.batch))*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
			})
		}
	}
}

// sparseBenchResult is the BENCH_sparse.json schema — the before/after
// record for event-driven scheduling. "Dense" is the every-gate reference
// walk (test-only, the oracles' reference) and "sparse" the propagation
// walk, run on the same engine build, so the comparison isolates the
// scheduler.
type sparseBenchResult struct {
	Timestamp    string `json:"timestamp"`
	NetlistGates int    `json:"netlistGates"`
	NetlistPIs   int    `json:"netlistPIs"`
	Tiles        int    `json:"tiles"`

	PartialPIsPerVector  int     `json:"partialPIsPerVector"`
	PartialPIFraction    float64 `json:"partialPIFraction"`
	PartialVectors       int     `json:"partialVectors"`
	PartialDenseSecPerV  float64 `json:"partialDenseSecPerVector"`
	PartialSparseSecPerV float64 `json:"partialSparseSecPerVector"`
	PartialSpeedup       float64 `json:"partialSpeedup"`

	FullVectors       int     `json:"fullVectors"`
	FullDenseSecPerV  float64 `json:"fullDenseSecPerVector"`
	FullSparseSecPerV float64 `json:"fullSparseSecPerVector"`
	FullSpeedup       float64 `json:"fullSpeedup"`
}

// TestWriteSparseBench regenerates BENCH_sparse.json when BENCH_SPARSE_OUT
// names the output path (it is skipped in normal test runs):
//
//	BENCH_SPARSE_OUT=$(pwd)/BENCH_sparse.json go test -run TestWriteSparseBench ./internal/sta/
//
// The acceptance bar it documents: ≥3x on batches stimulating ≤10% of the
// PIs, no regression on full-stimulus batches.
func TestWriteSparseBench(t *testing.T) {
	out := os.Getenv("BENCH_SPARSE_OUT")
	if out == "" {
		t.Skip("set BENCH_SPARSE_OUT to regenerate BENCH_sparse.json")
	}
	c := getTiledBench(t)
	partial := tiledBatch(t, c, 32)
	full := fullBatch(c, 4)

	res := sparseBenchResult{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NetlistGates: benchTiles * benchGatesPerTile,
		NetlistPIs:   benchTiles * benchPIsPerTile,
		Tiles:        benchTiles,

		PartialPIsPerVector: benchPIsPerTile,
		PartialPIFraction:   1.0 / benchTiles,
		PartialVectors:      len(partial),
		FullVectors:         len(full),
	}
	res.PartialDenseSecPerV = secPerVector(c, partial, true)
	res.PartialSparseSecPerV = secPerVector(c, partial, false)
	res.PartialSpeedup = res.PartialDenseSecPerV / res.PartialSparseSecPerV
	res.FullDenseSecPerV = secPerVector(c, full, true)
	res.FullSparseSecPerV = secPerVector(c, full, false)
	res.FullSpeedup = res.FullDenseSecPerV / res.FullSparseSecPerV

	if res.PartialSpeedup < 3 {
		t.Errorf("partial-stimulus speedup %.2fx, acceptance bar is 3x", res.PartialSpeedup)
	}
	if res.FullSpeedup < 0.9 {
		t.Errorf("full-stimulus walk/reference ratio %.2fx — the walk regressed on saturated batches", res.FullSpeedup)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("partial %.2fx (%.3fms -> %.3fms per vector), full %.2fx; wrote %s",
		res.PartialSpeedup, res.PartialDenseSecPerV*1e3, res.PartialSparseSecPerV*1e3, res.FullSpeedup, out)
}
