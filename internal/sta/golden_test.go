package sta

// Cross-build golden digest. The difftest oracles compare the walk against
// the every-gate reference inside one build, so a change to arithmetic both
// share (a single-model lookup, an interpolation fraction) would pass them
// unseen. This test pins the engine's output bits to a digest recorded in
// testdata: every arrival's time and transition-time bits, dominant pin,
// combined-input count and causing gate, plus the critical path of every
// primary-output arrival. A mismatch means the engine's arithmetic moved;
// if that is intended, the failure message carries the new digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"
)

const goldenDigestFile = "testdata/golden_digest.txt"

// digestResult hashes everything a result says about its arrivals, in net
// name order, then the critical path behind every primary-output arrival.
func digestResult(h hash.Hash, c *Circuit, names []string, res *Result) error {
	var b [8]byte
	bits := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, name := range names {
		n := c.Net(name)
		for _, dir := range bothDirs {
			a, ok := res.Arrival(n, dir)
			if !ok {
				continue
			}
			fmt.Fprintf(h, "%s/%d:", name, dir)
			bits(a.Time)
			bits(a.TT)
			cause := ""
			if g := res.gate(a); g != nil {
				cause = g.Name
			}
			fmt.Fprintf(h, "%d,%d,%s;", a.FromPin, a.UsedInputs, cause)
		}
	}
	for _, po := range c.POs {
		for _, dir := range bothDirs {
			if _, ok := res.Arrival(po, dir); !ok {
				continue
			}
			path, err := res.CriticalPath(po, dir)
			if err != nil {
				return err
			}
			for _, st := range path {
				fmt.Fprintf(h, "%s/%d>", st.Net.Name, st.Arrival.Dir)
			}
			h.Write([]byte{'\n'})
		}
	}
	return nil
}

// goldenDigest analyzes SynthRandom(64, 4000, 1) under 8 SynthEvents
// vectors in both modes, plus the pulse-filtered runt-heavy glitch-bench
// vector, and returns the hex SHA-256 over all their digests.
func goldenDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	run := func(c *Circuit, evs []PIEvent, mode Mode, opt Options) {
		t.Helper()
		res, err := c.AnalyzeOpts(evs, mode, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := digestResult(h, c, c.NetsByName(), res); err != nil {
			t.Fatal(err)
		}
	}
	c, err := SynthRandom(64, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		evs := SynthEvents(c, seed)
		for _, mode := range []Mode{Proximity, Conventional} {
			run(c, evs, mode, Options{Workers: 1})
		}
	}
	gc, gevs := getGlitchBench(t)
	run(gc, gevs, Proximity, Options{Workers: 1, PulseFiltering: true})
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigest(t *testing.T) {
	want, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenDigest(t); got != strings.TrimSpace(string(want)) {
		t.Fatalf("engine output digest %s, want %s (%s): arrival or path bits changed", got, strings.TrimSpace(string(want)), goldenDigestFile)
	}
}
