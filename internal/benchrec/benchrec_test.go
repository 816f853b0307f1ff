package benchrec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sample is a two-record file: the mc record's 20x and 31.3x floors and a
// bystander that a write to mc must leave alone.
const sample = `[
 {"name": "mc", "timestamp": "2026-08-08T00:49:24Z",
  "metrics": {"amortization": 39.1},
  "bars": [{"metric": "amortization", "min": 31.282521}, {"metric": "amortization", "min": 20}]},
 {"name": "glitch", "metrics": {"filterOverhead": 1.25},
  "bars": [{"metric": "filterOverhead", "max": 2}, {"metric": "pulsesFiltered+pulsesDegraded", "min": 1}]}
]
`

func sampleFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_records.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func load(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// A write that misses any bar must not touch the file: re-recording a slow
// host's 16.4x would otherwise turn the 31.3x guard into a 13.1x one.
func TestFailedWriteLeavesFileUnchanged(t *testing.T) {
	for _, m := range []map[string]float64{
		{"amortization": 16.4},       // misses both floors
		{"amortization": 25},         // clears 20x, misses 31.3x
		{"amortizationTypo": 40},     // bar metric not measured
		{"amortization": math.NaN()}, // a benchmark that failed
	} {
		path := sampleFile(t)
		if err := judge(path, "mc", m, true); err == nil {
			t.Errorf("write of %v passed the 31.3x floor", m)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte(sample)) {
			t.Errorf("failed write of %v rewrote the file:\n%s", m, got)
		}
	}
	path := sampleFile(t)
	if err := judge(path, "glitch", map[string]float64{"filterOverhead": 1.2, "pulsesFiltered": 0, "pulsesDegraded": 0}, true); err == nil {
		t.Error("write that judged no pulses passed the judged-pulses bar")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte(sample)) {
		t.Errorf("vacuous glitch write rewrote the file:\n%s", got)
	}
}

// A passing write replaces the record's metrics, host and timestamp, and
// nothing else: not its bars, not another record.
func TestWriteKeepsBars(t *testing.T) {
	path := sampleFile(t)
	before := load(t, path)
	m := map[string]float64{"amortization": 33, "samples": 1024}
	if err := judge(path, "mc", m, true); err != nil {
		t.Fatal(err)
	}
	after := load(t, path)
	if !reflect.DeepEqual(after[0].Bars, before[0].Bars) {
		t.Errorf("bars changed: %+v -> %+v", before[0].Bars, after[0].Bars)
	}
	if !reflect.DeepEqual(after[0].Metrics, m) {
		t.Errorf("metrics %v, want %v", after[0].Metrics, m)
	}
	if after[0].Host == nil || after[0].Host.GOMAXPROCS == 0 || after[0].Timestamp == before[0].Timestamp {
		t.Errorf("host %+v, timestamp %q not rewritten", after[0].Host, after[0].Timestamp)
	}
	if !reflect.DeepEqual(after[1], before[1]) {
		t.Errorf("bystander record changed: %+v -> %+v", before[1], after[1])
	}
	if err := judge(path, "mc", m, false); err != nil {
		t.Errorf("guard of the written metrics: %v", err)
	}
}

func TestRunSkipsWithoutEnv(t *testing.T) {
	t.Setenv("BENCH_RECORD", "")
	t.Setenv("BENCH_GUARD", "")
	measured := false
	Run(t, "mc", func(*testing.T) map[string]float64 {
		measured = true
		return nil
	})
	if measured {
		t.Error("Run measured with neither BENCH_RECORD nor BENCH_GUARD set")
	}
}

// The committed file parses, names each record once, gives every bar a
// threshold, and every recorded measurement holds its own bars.
func TestRecordsFile(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range load(t, File) {
		if seen[r.Name] {
			t.Errorf("record %q appears twice", r.Name)
		}
		seen[r.Name] = true
		if len(r.Bars) == 0 {
			t.Errorf("record %q has no bars", r.Name)
		}
		for _, b := range r.Bars {
			if b.Min == nil && b.Max == nil {
				t.Errorf("record %q: bar on %s has no threshold", r.Name, b.Metric)
			}
		}
		if len(r.Metrics) == 0 {
			continue // never recorded: guarded only
		}
		if fails := r.failures(r.Metrics); len(fails) > 0 {
			t.Errorf("record %q misses its own bars: %v", r.Name, fails)
		}
	}
}
