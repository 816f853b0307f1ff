package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
)

// stad is one running daemon child process. Its log goes to a file in the
// run directory, so the daemon never blocks on a pipe the benchmark must
// drain.
type stad struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	exited  chan struct{} // closed once the process has been waited for
	waitErr error

	gomaxprocs string // as the daemon logged it at start
	goVersion  string
}

var (
	listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)
	buildRE  = regexp.MustCompile(`goVersion=(\S+) gomaxprocs=(\d+)`)
)

// startStad launches the daemon with default flags on an ephemeral
// loopback port and waits until it logs that it is listening.
func startStad(ctx context.Context, bin, libDir, logPath, wideLog string) (*stad, error) {
	args := []string{"-lib", libDir, "-addr", "127.0.0.1:0"}
	if wideLog != "" {
		args = append(args, "-wide-log", wideLog)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stad: %w", err)
	}
	s := &stad{cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	for {
		data, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(data); m != nil {
			s.base = "http://" + string(m[1])
			if b := buildRE.FindSubmatch(data); b != nil {
				s.goVersion, s.gomaxprocs = string(b[1]), string(b[2])
			}
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("stad exited before listening (%v): %s", s.waitErr, data)
		case <-ctx.Done():
			s.stop()
			return nil, fmt.Errorf("stad did not start: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if the drain stalls,
// and returns once the process has exited.
func (s *stad) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (s *stad) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// postJSON sends one set-up request and decodes its 200 answer.
func postJSON(ctx context.Context, client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, r.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, resp)
}

// setup takes one daemon from launch to ready: process start, then
// prepare. It returns the running daemon and the time that took.
func setup(ctx context.Context, w *workload, client *http.Client, bin, runDir, wideLog string) (*stad, time.Duration, error) {
	t0 := time.Now()
	s, err := startStad(ctx, bin, filepath.Join(runDir, "lib"), filepath.Join(runDir, "stad.log"), wideLog)
	if err != nil {
		return nil, 0, err
	}
	if err := prepare(ctx, client, s.base, w); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// prepare uploads the netlist (the daemon loads the library models and
// compiles it), keeps the eco-tiled baseline, and binds the request pool
// to the handles the daemon assigned.
func prepare(ctx context.Context, client *http.Client, base string, w *workload) error {
	var up service.UploadResponse
	if err := postJSON(ctx, client, base+"/v1/netlists", service.UploadRequest{Netlist: w.netlist}, &up); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	var baselineID string
	if w.baseline != nil {
		var resp service.AnalyzeResponse
		req := service.AnalyzeRequest{Netlist: up.ID, Vector: w.baseline, KeepBaseline: true, PulseFilter: w.pulse}
		if err := postJSON(ctx, client, base+"/v1/analyze", req, &resp); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if err := sameVector(resp.VectorResult, vectorResult(w.compiled.Circuit(), w.baseRes)); err != nil {
			return fmt.Errorf("baseline differs from the serial reference: %w", err)
		}
		baselineID = resp.BaselineID
	}
	return w.bind(up.ID, baselineID)
}
