package difftest

import (
	"strings"
	"testing"

	"repro/internal/sta"
)

// nConfigs is the seeded configuration budget each oracle sweeps. The
// acceptance bar is ≥ 100; keep a margin so trimming shapes never dips
// below it.
const nConfigs = 120

// buildWithEvents constructs a config's circuit and its k-th stimulus.
func buildWithEvents(t *testing.T, cfg Config, k int) (*sta.Circuit, []sta.PIEvent) {
	t.Helper()
	c, err := cfg.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", cfg.Name, err)
	}
	evs, err := ToPIEvents(c, cfg.WireVector(c, k))
	if err != nil {
		t.Fatalf("%s: events: %v", cfg.Name, err)
	}
	return c, evs
}

// TestOracleParallelVsSerial: the levelized parallel schedule must be
// bit-identical to the serial reference on every config — the schedule
// changes, the arithmetic must not.
func TestOracleParallelVsSerial(t *testing.T) {
	proxEvals := 0
	compared := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		serial, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", cfg.Name, err)
		}
		parallel, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s: parallel: %v", cfg.Name, err)
		}
		if err := DiffExact(Arrivals(c, serial), Arrivals(c, parallel), nil); err != nil {
			t.Errorf("%s: parallel diverges from serial: %v", cfg.Name, err)
		}
		proxEvals += serial.Stats.ProximityEvals
		compared += len(Arrivals(c, serial))
	}
	if proxEvals == 0 {
		t.Fatal("no proximity evaluations across the whole sweep — oracle is vacuous")
	}
	if compared < 10*nConfigs {
		t.Fatalf("only %d arrivals compared over %d configs — sweep too thin", compared, nConfigs)
	}
}

// TestOracleBatchVsPerVector: AnalyzeBatch over N vectors must reproduce N
// independent Analyze calls exactly, for every vector index.
func TestOracleBatchVsPerVector(t *testing.T) {
	const vectorsPerConfig = 4
	for _, cfg := range Configs(nConfigs) {
		c, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cfg.Name, err)
		}
		batch := make([][]sta.PIEvent, vectorsPerConfig)
		for k := range batch {
			if batch[k], err = ToPIEvents(c, cfg.WireVector(c, k)); err != nil {
				t.Fatalf("%s: vector %d: %v", cfg.Name, k, err)
			}
		}
		results, err := c.AnalyzeBatch(batch, cfg.Mode, sta.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: batch: %v", cfg.Name, err)
		}
		for k, res := range results {
			single, err := c.AnalyzeOpts(batch[k], cfg.Mode, sta.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: single %d: %v", cfg.Name, k, err)
			}
			if err := DiffExact(Arrivals(c, single), Arrivals(c, res), nil); err != nil {
				t.Errorf("%s: batch vector %d diverges from Analyze: %v", cfg.Name, k, err)
			}
		}
	}
}

// cubicLibrary returns a synthetic library with every calculator switched
// to cubic Hermite table interpolation. The tables are the same grids as
// the linear default — only the in-between reconstruction differs.
func cubicLibrary() *sta.Library {
	lib := sta.SynthLibrary(3)
	for _, name := range []string{"inv", "nand2", "nand3"} {
		lib.Get(name).CubicTables = true
	}
	return lib
}

// TestOracleTableVsCubic: linear and cubic reconstructions of the same
// characterized grids must agree within tolerance everywhere — a divergence
// beyond interpolation error means one backend reads the tables wrong. The
// cubic path must also actually differ somewhere, or the toggle is dead.
func TestOracleTableVsCubic(t *testing.T) {
	// Measured over this sweep: arrival times differ by at most ~3.5%
	// between the two reconstructions, TTs by up to ~33% (window membership
	// is discrete — a borderline shift adds or drops one multiplicative TT
	// factor). The budgets below leave ~2× headroom; a broken backend blows
	// through them by orders of magnitude.
	const relTime, relTT, absTol = 8e-2, 5e-1, 1e-13
	differing := 0
	for _, cfg := range Configs(nConfigs) {
		c, evs := buildWithEvents(t, cfg, 0)
		var text strings.Builder
		if err := sta.WriteNetlist(&text, c); err != nil {
			t.Fatalf("%s: serialize: %v", cfg.Name, err)
		}
		cc, err := sta.ParseNetlist(strings.NewReader(text.String()), cubicLibrary())
		if err != nil {
			t.Fatalf("%s: reparse over cubic library: %v", cfg.Name, err)
		}
		cubicEvs := make([]sta.PIEvent, len(evs))
		for i, ev := range evs {
			cubicEvs[i] = sta.PIEvent{Net: cc.Net(ev.Net.Name), Dir: ev.Dir, TT: ev.TT, Time: ev.Time}
		}
		linRes, err := c.AnalyzeOpts(evs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: linear: %v", cfg.Name, err)
		}
		cubRes, err := cc.AnalyzeOpts(cubicEvs, cfg.Mode, sta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: cubic: %v", cfg.Name, err)
		}
		lin, cub := Arrivals(c, linRes), Arrivals(cc, cubRes)
		if err := DiffWithin(lin, cub, relTime, relTT, absTol); err != nil {
			t.Errorf("%s: cubic backend diverges beyond tolerance: %v", cfg.Name, err)
		}
		for k, av := range lin {
			if bv, ok := cub[k]; ok && (av.Time != bv.Time || av.TT != bv.TT) {
				differing++
			}
		}
	}
	if differing == 0 {
		t.Fatal("cubic backend never produced a different value — toggle appears dead, oracle vacuous")
	}
}
