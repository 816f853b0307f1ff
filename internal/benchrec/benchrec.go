// Package benchrec is the one harness behind the repository's BENCH records.
// Every ratio-guarded measurement is a Record in BENCH_records.json at the
// module root, and one entry point, Run, either guards a record or rewrites
// it:
//
//	BENCH_GUARD=1       go test -run '^TestBench$' -v ./internal/sta/ ./internal/service/
//	BENCH_RECORD=delta  go test -run '^TestBench$' -v ./internal/sta/
//	BENCH_RECORD=all    go test -run '^TestBench$' -v ./internal/sta/ ./internal/service/
//
// A bar is an absolute threshold on one metric. A guard measures and checks
// every bar. A write measures, checks every bar, and only if all of them
// hold replaces the record's metrics, host and timestamp. It never changes a
// bar: moving a bar is a reviewed edit of the file, not a side effect of a
// run, so a slow host cannot re-record its way to a looser guard.
//
// The package imports testing; import it only from _test.go files.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// File is BENCH_records.json as seen from a package directory two levels
// below the module root (internal/*), where go test runs that package's
// tests.
const File = "../../BENCH_records.json"

// Host describes the machine and build a record was measured on.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

// Bar is an absolute threshold on one metric: Min for a floor, Max for a
// ceiling. Metric may join names with "+" to bound their sum.
type Bar struct {
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Record is one named measurement with the bars it must hold.
type Record struct {
	Name      string             `json:"name"`
	Host      *Host              `json:"host,omitempty"`
	Timestamp string             `json:"timestamp,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Bars      []Bar              `json:"bars"`
}

// Run runs record name as a subtest of t. With BENCH_RECORD set to name (or
// to "all") it measures and rewrites the record if every bar holds; else
// with BENCH_GUARD set it measures and checks every bar; else it skips.
// measure returns the record's metrics and may skip or fail its t like any
// test.
func Run(t *testing.T, name string, measure func(t *testing.T) map[string]float64) {
	t.Run(name, func(t *testing.T) {
		sel := os.Getenv("BENCH_RECORD")
		write := sel == name || sel == "all"
		if !write && os.Getenv("BENCH_GUARD") == "" {
			t.Skipf("set BENCH_GUARD=1 to check record %q, or BENCH_RECORD=%s to rewrite it", name, name)
		}
		m := measure(t)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			t.Logf("%s = %.6g", k, m[k])
		}
		if err := judge(File, name, m, write); err != nil {
			t.Error(err)
		}
	})
}

// judge checks m against the bars of record name in the file at path. When
// write is set and every bar holds, it replaces that record's metrics, host
// and timestamp and rewrites the file; a failed bar leaves the file as it
// was.
func judge(path, name string, m map[string]float64, write bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	i := 0
	for i < len(recs) && recs[i].Name != name {
		i++
	}
	if i == len(recs) {
		return fmt.Errorf("%s: no record %q", path, name)
	}
	if fails := recs[i].failures(m); len(fails) > 0 {
		err := fmt.Errorf("record %q misses its bars: %s", name, strings.Join(fails, "; "))
		if write {
			err = fmt.Errorf("%w (record not written)", err)
		}
		return err
	}
	if !write {
		return nil
	}
	h := thisHost()
	recs[i].Metrics, recs[i].Host = m, &h
	recs[i].Timestamp = time.Now().UTC().Format(time.RFC3339)
	out, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// failures describes every bar m misses. An unmeasured metric misses its
// bar, and so does NaN.
func (r *Record) failures(m map[string]float64) []string {
	var out []string
	for _, b := range r.Bars {
		v, ok := 0.0, true
		for _, k := range strings.Split(b.Metric, "+") {
			x, has := m[k]
			v, ok = v+x, ok && has
		}
		switch {
		case !ok:
			out = append(out, b.Metric+" not measured")
		case b.Min == nil && b.Max == nil:
			out = append(out, b.Metric+" bar has no threshold")
		case b.Min != nil && !(v >= *b.Min):
			out = append(out, fmt.Sprintf("%s = %.6g, bar >= %g", b.Metric, v, *b.Min))
		case b.Max != nil && !(v <= *b.Max):
			out = append(out, fmt.Sprintf("%s = %.6g, bar <= %g", b.Metric, v, *b.Max))
		}
	}
	return out
}

// thisHost describes the running machine and the checkout's commit, as far
// as they can be found.
func thisHost() Host {
	h := Host{CPU: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
