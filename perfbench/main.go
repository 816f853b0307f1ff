// Command perfbench is the repository benchmark: it launches stad as a
// child process over a synthetic cell library, drives one of three
// workloads against it over loopback HTTP from two closed-loop clients,
// checks every response bit for bit against the serial in-process engine,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). The last line of standard output is the JSON result.
//
// Run it through run.sh from the repository root, which builds stad and
// this program from the checkout first:
//
//	bash perfbench/run.sh --workload batch-full --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run takes a fresh daemon from
// launch to ready; setup_s is their median.
const setupRuns = 7

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	stad     string // daemon binary
	root     string // repository checkout
	work     string // scratch directory inside the checkout
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report is what one run measured and whether its outputs were right.
type report struct {
	metrics           []metric
	lines             []string // human-readable detail printed before the result
	notes             []string // failures and failed self-checks
	attempted, failed int
	broken            bool // a self-check (corruption check, trace validation) failed

	stadGOMAXPROCS, stadGoVersion string
}

// account folds one load's request outcomes and self-check into the report.
func (rep *report) account(lr loadResult) {
	rep.attempted += lr.attempted
	rep.failed += lr.failed
	if lr.firstErr != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("first failure: %v", lr.firstErr))
	}
	if lr.corrupted != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("output check self-test failed: %v", lr.corrupted))
		rep.broken = true
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the netlist and the stimulus")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured load duration in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&cfg.stad, "stad", "", "stad binary built from this checkout")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout (for provenance)")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "scratch directory for libraries, logs and traces")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.stad == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return fmt.Errorf("need -stad, -seconds >= 1 and -trace 0|1")
	}
	// Every run must end well inside three minutes, stuck daemon or not.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	w, err := generate(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	libDir := filepath.Join(runDir, "lib")
	if err := writeLibrary(libDir); err != nil {
		return err
	}
	if err := w.reference(ctx, libDir); err != nil {
		return err
	}

	var rep report
	if cfg.trace == 0 {
		rep, err = endToEnd(ctx, w, cfg, runDir)
	} else {
		tracePath := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		rep, err = traced(ctx, w, cfg, runDir, tracePath)
	}
	if err != nil {
		return err
	}
	return printReport(os.Stdout, cfg, rep)
}

// endToEnd measures what a user of stad sees: set-up time, throughput,
// client latency and the daemon's peak memory.
func endToEnd(ctx context.Context, w *workload, cfg config, runDir string) (report, error) {
	var rep report
	client := newClient()
	var s *stad
	defer func() { s.stop() }()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		s.stop()
		client.CloseIdleConnections()
		var d time.Duration
		var err error
		if s, d, err = setup(ctx, w, client, cfg.stad, runDir, ""); err != nil {
			return rep, err
		}
		setups = append(setups, d.Seconds())
	}
	rep.stadGOMAXPROCS, rep.stadGoVersion = s.gomaxprocs, s.goVersion

	lr := runLoad(ctx, client, s.base, w, time.Duration(cfg.seconds)*time.Second)
	rss, err := s.peakRSSMB()
	if err != nil {
		return rep, err
	}
	rep.account(lr)
	if len(lr.stepsMs) == 0 {
		return rep, fmt.Errorf("no request completed: %v", lr.firstErr)
	}

	secs := lr.elapsed.Seconds()
	vectors := 0
	for _, smp := range lr.samples {
		vectors += smp.req.numVectors()
	}
	lat := lr.stepsMs
	rep.metrics = append(rep.metrics,
		metric{"setup_s", median(setups), "s", fmt.Sprintf("median of %d launches to ready: %s", setupRuns, formatList(setups, 4))},
		metric{"vectors_per_s", float64(vectors) / secs, "1/s", fmt.Sprintf("%d vectors in %.3f s", vectors, secs)},
		metric{"requests_per_s", float64(len(lr.samples)) / secs, "1/s", fmt.Sprintf("%d requests", len(lr.samples))})
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v, used := percentile(lat, p.q)
		note := fmt.Sprintf("n=%d steps of %d request(s)", len(lat), w.step)
		if used < p.q {
			note += fmt.Sprintf("; rank lowered to p%.1f so that 10 samples lie beyond it", 100*used)
		}
		rep.metrics = append(rep.metrics, metric{p.name, v, "ms", note})
	}
	rep.metrics = append(rep.metrics, metric{"server_peak_rss_mb", rss, "MB", "VmHWM of the stad process"})
	rep.lines = append(rep.lines, fmt.Sprintf("responses byte-identical to the encoded reference: %d of %d checked", lr.identical, lr.attempted-lr.failed))
	return rep, nil
}

func formatList(xs []float64, digits int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*g", digits, x)
	}
	return strings.Join(parts, " ")
}

// provenance says where and on what a result was measured.
type provenance struct {
	CPU            string `json:"cpu"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	StadGOMAXPROCS string `json:"stadGomaxprocs"`
	GoVersion      string `json:"goVersion"`
	StadGoVersion  string `json:"stadGoVersion"`
	Commit         string `json:"commit"`
	Dirty          string `json:"dirty"`
	SourceSHA256   string `json:"sourceSha256"`
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	Seconds        int    `json:"seconds"`
	Trace          int    `json:"trace"`
}

func gatherProvenance(cfg config, rep report) provenance {
	p := provenance{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		StadGOMAXPROCS: rep.stadGOMAXPROCS, GoVersion: runtime.Version(), StadGoVersion: rep.stadGoVersion,
		Commit: "none (not a git checkout)", Dirty: "unknown",
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", cfg.root, "status", "--porcelain").Output(); err == nil {
			p.Dirty = fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	p.SourceSHA256 = sourceDigest(cfg.root)
	return p
}

// sourceDigest hashes every Go source and go.mod file of the checkout
// outside hidden directories, so a result names the code it measured even
// where there is no git metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printReport writes the detail lines, then the one-line JSON result.
func printReport(f *os.File, cfg config, rep report) error {
	prov, err := json.Marshal(gatherProvenance(cfg, rep))
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "provenance %s\n", prov)
	for _, l := range rep.lines {
		fmt.Fprintln(f, l)
	}
	for _, m := range rep.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(f, "metric %s %.6g %s%s\n", m.name, m.value, m.unit, note)
	}
	ratio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(f, "failed_ratio %g (%d of %d requests failed)\n", ratio, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(f, "FAIL", n)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && !rep.broken, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", out)
	return err
}
