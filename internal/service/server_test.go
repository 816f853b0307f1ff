package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sta"
	"repro/internal/waveform"
)

// testNetlist is a small nand2/nand3 circuit with real proximity action:
// the nand3 sees three close arrivals, the nand2 two.
const testNetlist = `
input a b c d
gate g1 nand3 x a b c
gate g2 nand2 y x d
gate g3 inv   z y
output z
`

// newTestServer spins a Server over a synthetic nand2/nand3/inv library.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeSynthLibrary(t, dir, "nand2", "nand3", "inv")
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(dir, 8)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes a JSON answer into out, returning the
// status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s answer: %v", url, err)
		}
	}
	return resp.StatusCode
}

func uploadTestNetlist(t *testing.T, base string) UploadResponse {
	t.Helper()
	var up UploadResponse
	if code := post(t, base+"/v1/netlists", UploadRequest{Netlist: testNetlist}, &up); code != 200 {
		t.Fatalf("upload status %d", code)
	}
	return up
}

// testVector builds a stimulus with all four inputs falling in close
// proximity — the shape that exercises the proximity algorithm.
func testVector(shift float64) []Event {
	return []Event{
		{Net: "a", Dir: "fall", TTPs: 300, TimePs: shift},
		{Net: "b", Dir: "fall", TTPs: 250, TimePs: shift + 15},
		{Net: "c", Dir: "fall", TTPs: 350, TimePs: shift + 40},
		{Net: "d", Dir: "rise", TTPs: 280, TimePs: shift + 20},
	}
}

// refResults computes the ground truth the way cmd/sta does: parse the same
// netlist over the same models, serial AnalyzeBatch.
func refResults(t *testing.T, reg *Registry, batch [][]Event, mode sta.Mode) (*sta.Circuit, []*sta.Result) {
	t.Helper()
	lib := sta.NewLibrary()
	for _, cell := range []string{"nand2", "nand3", "inv"} {
		calc, err := reg.Get(cell)
		if err != nil {
			t.Fatal(err)
		}
		lib.Add(cell, calc)
	}
	c, err := sta.ParseNetlist(strings.NewReader(testNetlist), lib)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([][]sta.PIEvent, len(batch))
	for i, vec := range batch {
		if evs[i], err = resolveVector(c, vec); err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.AnalyzeBatch(evs, mode, sta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c, results
}

// checkVectorAgainstRef requires the wire arrivals to be bit-identical to
// the engine's (the wire carries time*1e12; the comparison applies the same
// conversion, so equality is exact, not approximate).
func checkVectorAgainstRef(t *testing.T, c *sta.Circuit, ref *sta.Result, vr VectorResult, label string) {
	t.Helper()
	byKey := map[string]Arrival{}
	for _, a := range vr.Arrivals {
		byKey[a.Net+"/"+a.Dir] = a
	}
	seen := 0
	for _, po := range c.POs {
		for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
			ra, ok := ref.Arrival(po, dir)
			wa, wok := byKey[po.Name+"/"+dir.String()]
			if ok != wok {
				t.Fatalf("%s: net %s %v: present=%v on wire, %v in engine", label, po.Name, dir, wok, ok)
			}
			if !ok {
				continue
			}
			seen++
			if wa.TimePs != ra.Time*1e12 || wa.TTPs != ra.TT*1e12 || wa.UsedInputs != ra.UsedInputs {
				t.Fatalf("%s: net %s %v: wire (%.6f ps, %.6f ps, %d) vs engine (%.6f ps, %.6f ps, %d)",
					label, po.Name, dir, wa.TimePs, wa.TTPs, wa.UsedInputs,
					ra.Time*1e12, ra.TT*1e12, ra.UsedInputs)
			}
		}
	}
	if seen == 0 {
		t.Fatalf("%s: no output arrivals compared — vacuous", label)
	}
}

func TestUploadAndAnalyze(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg})

	up := uploadTestNetlist(t, ts.URL)
	if up.Gates != 3 || up.Levels != 3 {
		t.Fatalf("upload shape %+v, want 3 gates / 3 levels", up)
	}
	if len(up.Inputs) != 4 || len(up.Outputs) != 1 || up.Outputs[0] != "z" {
		t.Fatalf("upload IO %+v", up)
	}

	var resp AnalyzeResponse
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Mode: "prox", Vector: testVector(0)}, &resp)
	if code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	c, refs := refResults(t, reg, [][]Event{testVector(0)}, sta.Proximity)
	checkVectorAgainstRef(t, c, refs[0], resp.VectorResult, "analyze")
	if resp.ProximityEvals == 0 {
		t.Fatal("stimulus produced no proximity evaluations — test is vacuous")
	}

	// nets=all returns internal nets too.
	var all AnalyzeResponse
	post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Nets: "all", Vector: testVector(0)}, &all)
	if len(all.Arrivals) <= len(resp.Arrivals) {
		t.Fatalf("nets=all returned %d arrivals, outputs-only %d", len(all.Arrivals), len(resp.Arrivals))
	}
}

// TestBatchBitIdenticalToSerial is the acceptance check: the batched
// endpoint must reproduce the serial engine (the same arithmetic cmd/sta
// prints) bit for bit, in both modes.
func TestBatchBitIdenticalToSerial(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg})
	up := uploadTestNetlist(t, ts.URL)

	batch := make([][]Event, 12)
	for i := range batch {
		batch[i] = testVector(float64(7 * i))
	}
	for _, mode := range []struct {
		wire string
		m    sta.Mode
	}{{"prox", sta.Proximity}, {"conv", sta.Conventional}} {
		var resp BatchResponse
		code := post(t, ts.URL+"/v1/analyze:batch",
			BatchRequest{Netlist: up.ID, Mode: mode.wire, Vectors: batch}, &resp)
		if code != 200 {
			t.Fatalf("%s: batch status %d", mode.wire, code)
		}
		if len(resp.Results) != len(batch) {
			t.Fatalf("%s: %d results for %d vectors", mode.wire, len(resp.Results), len(batch))
		}
		c, refs := refResults(t, reg, batch, mode.m)
		for i := range batch {
			checkVectorAgainstRef(t, c, refs[i], resp.Results[i],
				fmt.Sprintf("%s vector %d", mode.wire, i))
		}
	}
}

// TestConcurrentHammer fires ≥64 overlapping analyze and batch requests at
// one uploaded netlist. Under -race this is the acceptance proof that the
// registry, the netlist store, and the shared Compiled handle are clean.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 8)
	writeSynthLibrary(t, reg.dir, "nand2", "nand3", "inv")
	_, ts := newTestServer(t, Config{Registry: reg, MaxInflight: 256, Workers: 2})
	up := uploadTestNetlist(t, ts.URL)

	c, refs := refResults(t, reg, [][]Event{testVector(0)}, sta.Proximity)
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				var resp BatchResponse
				code := post(t, ts.URL+"/v1/analyze:batch",
					BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), testVector(9)}}, &resp)
				if code != 200 {
					errs <- fmt.Errorf("client %d: batch status %d", i, code)
				}
				return
			}
			var resp AnalyzeResponse
			code := post(t, ts.URL+"/v1/analyze",
				AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &resp)
			if code != 200 {
				errs <- fmt.Errorf("client %d: status %d", i, code)
				return
			}
			// Every concurrent answer must still be the exact serial result.
			byKey := map[string]Arrival{}
			for _, a := range resp.Arrivals {
				byKey[a.Net+"/"+a.Dir] = a
			}
			for _, po := range c.POs {
				for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
					if ra, ok := ref0Arrival(refs[0], po, dir); ok {
						if wa := byKey[po.Name+"/"+dir.String()]; wa.TimePs != ra.Time*1e12 {
							errs <- fmt.Errorf("client %d: net %s drifted", i, po.Name)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := reg.Stats()
	if st.Hits == 0 {
		t.Fatalf("registry stats %+v: concurrent requests never hit the model cache", st)
	}
	if st.Misses != 3 {
		t.Fatalf("registry stats %+v: want exactly one load per cell (3)", st)
	}
}

func ref0Arrival(r *sta.Result, n *sta.Net, dir waveform.Direction) (sta.Arrival, bool) {
	return r.Arrival(n, dir)
}

// TestOverloadReturns429: with the admission semaphore held full, the next
// request is rejected immediately with Retry-After rather than queued.
func TestOverloadReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	up := uploadTestNetlist(t, ts.URL)

	// Fill the semaphore deterministically (white-box): both slots busy.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	data, _ := json.Marshal(AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// healthz must bypass admission and keep answering under overload.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("healthz under overload: %d", hr.StatusCode)
	}
}

// TestRequestTimeout: a timeout shorter than any analysis yields 504, not a
// hung request.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	up := uploadTestNetlist(t, ts.URL)
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &ErrorResponse{})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
}

func TestNetlistLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNetlists: 2})
	first := uploadTestNetlist(t, ts.URL)
	uploadTestNetlist(t, ts.URL)
	uploadTestNetlist(t, ts.URL)
	code := post(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Netlist: first.ID, Vector: testVector(0)}, &ErrorResponse{})
	if code != http.StatusNotFound {
		t.Fatalf("evicted netlist answered %d, want 404", code)
	}
}

// TestBadRequests pins every error answer of the six POST endpoints: the
// status and the exact error text the client is told.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	base := analyzeKeep(t, ts.URL, up.ID, testVector(0))
	set := []Event{{Net: "a", Dir: "fall", TTPs: 300, TimePs: 5}}
	unknownField := map[string]any{"bogus": 1}
	cases := []struct {
		name    string
		url     string
		body    any
		want    int
		wantErr string
	}{
		// upload
		{"upload bad body", "/v1/netlists", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"empty netlist", "/v1/netlists", UploadRequest{}, 400, "empty netlist"},
		{"unknown cell", "/v1/netlists", UploadRequest{Netlist: "input a\ngate g1 xor2 y a a\noutput y"}, 400, `cell "xor2": no model in the library`},
		{"undriven net", "/v1/netlists", UploadRequest{Netlist: "input a\ngate g1 inv y b\noutput y"}, 400, "parse: sta: net b is neither driven nor a declared input"},
		{"combinational loop", "/v1/netlists", UploadRequest{Netlist: "input a\ngate g1 nand2 y a z\ngate g2 inv z y\noutput y"}, 400, "compile: sta: combinational loop through gate g1"},

		// analyze
		{"analyze bad body", "/v1/analyze", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"unknown netlist", "/v1/analyze", AnalyzeRequest{Netlist: "n999", Vector: testVector(0)}, 404, `unknown netlist "n999" (expired or never uploaded)`},
		{"bad mode", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Mode: "psychic", Vector: testVector(0)}, 400, `unknown mode "psychic" (want prox or conv)`},
		{"bad nets", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Nets: "al", Vector: testVector(0)}, 400, `unknown nets "al" (want outputs or all)`},
		{"unknown net", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "nope", Dir: "rise", TTPs: 100}}}, 400, `event 0: unknown net "nope"`},
		{"bad dir", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "sideways", TTPs: 100}}}, 400, `event 0 (net a): bad direction "sideways" (want rise or fall)`},
		{"empty vector", "/v1/analyze", AnalyzeRequest{Netlist: up.ID}, 400, "empty stimulus vector"},
		{"non-positive tt", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "a", Dir: "rise", TTPs: 0}}}, 400, "sta: event on a has non-positive or non-finite transition time 0"},
		{"event on internal net", "/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: []Event{{Net: "x", Dir: "rise", TTPs: 100}}}, 400, "sta: event on non-primary-input net x"},

		// analyze:delta
		{"delta bad body", "/v1/analyze:delta", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"unknown baseline", "/v1/analyze:delta", DeltaRequest{Baseline: "b999", Set: set}, 404, `unknown baseline "b999" (expired or never kept)`},
		{"baseline netlist mismatch", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Netlist: "nl42", Set: set}, 400, `baseline "b1" belongs to netlist "n1", not "nl42"`},
		{"delta bad nets", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Nets: "al", Set: set}, 400, `unknown nets "al" (want outputs or all)`},
		{"set unknown net", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Set: []Event{{Net: "nope", Dir: "fall", TTPs: 300}}}, 400, `set 0: unknown net "nope"`},
		{"set bad dir", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Set: []Event{{Net: "a", Dir: "sideways", TTPs: 300}}}, 400, `set 0 (net a): bad direction "sideways" (want rise or fall)`},
		{"remove unknown net", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Remove: []RemoveEvent{{Net: "nope", Dir: "fall"}}}, 400, `remove 0: unknown net "nope"`},
		{"remove bad dir", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Remove: []RemoveEvent{{Net: "a", Dir: "sideways"}}}, 400, `remove 0 (net a): bad direction "sideways" (want rise or fall)`},
		{"remove absent event", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Remove: []RemoveEvent{{Net: "a", Dir: "rise"}}}, 400, "sta: delta removes absent rising event on primary input a"},
		{"set on non-PI", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Set: []Event{{Net: "x", Dir: "fall", TTPs: 300}}}, 400, "sta: delta event on non-primary-input net x"},
		{"empty edit", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID}, 400, "sta: empty delta (no events set or removed)"},
		{"pulseFilter mismatch", "/v1/analyze:delta", DeltaRequest{Baseline: base.BaselineID, Set: set, PulseFilter: true}, 400, "sta: delta options: PulseFiltering is on but the baseline was analyzed without it (a delta cannot change analysis semantics \u2014 run a full analysis instead)"},

		// analyze:batch
		{"batch bad body", "/v1/analyze:batch", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"empty vector set", "/v1/analyze:batch", BatchRequest{Netlist: up.ID}, 400, "empty vector set"},
		{"batch unknown netlist", "/v1/analyze:batch", BatchRequest{Netlist: "n999", Vectors: [][]Event{testVector(0)}}, 404, `unknown netlist "n999" (expired or never uploaded)`},
		{"batch bad mode", "/v1/analyze:batch", BatchRequest{Netlist: up.ID, Mode: "psychic", Vectors: [][]Event{testVector(0)}}, 400, `unknown mode "psychic" (want prox or conv)`},
		{"batch bad nets", "/v1/analyze:batch", BatchRequest{Netlist: up.ID, Nets: "al", Vectors: [][]Event{testVector(0)}}, 400, `unknown nets "al" (want outputs or all)`},
		{"batch vector unknown net", "/v1/analyze:batch", BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), {{Net: "nope", Dir: "rise", TTPs: 100}}}}, 400, `vector 1: event 0: unknown net "nope"`},
		{"batch vector empty", "/v1/analyze:batch", BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), {}}}, 400, "vector 1: empty stimulus vector"},
		{"batch non-positive tt", "/v1/analyze:batch", BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), {{Net: "a", Dir: "rise", TTPs: 0}}}}, 400, "sta: batch vector 1: sta: event on a has non-positive or non-finite transition time 0"},

		// analyze:mc
		{"mc bad body", "/v1/analyze:mc", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"mc zero samples", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Vector: testVector(0)}, 400, "samples must be positive (got 0)"},
		{"mc oversized samples", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Vector: testVector(0), Samples: maxMCSamples + 1}, 400, "samples must be at most 65536 (got 65537); split larger runs across seeds"},
		{"mc negative sigma", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Vector: testVector(0), Samples: 4, Sigma: -0.5}, 400, "sigma must be non-negative (got -0.5)"},
		{"mc negative bins", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Vector: testVector(0), Samples: 4, Bins: -1}, 400, "bins must be non-negative (got -1)"},
		{"mc unknown netlist", "/v1/analyze:mc", MCRequest{Netlist: "n999", Vector: testVector(0), Samples: 4}, 404, `unknown netlist "n999" (expired or never uploaded)`},
		{"mc bad mode", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Mode: "typo", Vector: testVector(0), Samples: 4}, 400, `unknown mode "typo" (want prox or conv)`},
		{"mc empty vector", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Samples: 4}, 400, "empty stimulus vector"},
		{"mc unknown corner", "/v1/analyze:mc", MCRequest{Netlist: up.ID, Vector: testVector(0), Samples: 4, Corners: []string{"ss"}}, 400, `sta: mc: unknown corner "ss" (valid: [fast slow typ])`},

		// explain
		{"explain bad body", "/v1/explain", unknownField, 400, `bad request body: json: unknown field "bogus"`},
		{"explain no nets", "/v1/explain", ExplainRequest{Netlist: up.ID, Vector: testVector(0)}, 400, "no nets requested"},
		{"explain unknown netlist", "/v1/explain", ExplainRequest{Netlist: "n999", Nets: []string{"z"}, Vector: testVector(0)}, 404, `unknown netlist "n999" (expired or never uploaded)`},
		{"explain bad mode", "/v1/explain", ExplainRequest{Netlist: up.ID, Mode: "psychic", Nets: []string{"z"}, Vector: testVector(0)}, 400, `unknown mode "psychic" (want prox or conv)`},
		{"explain empty vector", "/v1/explain", ExplainRequest{Netlist: up.ID, Nets: []string{"z"}}, 400, "empty stimulus vector"},
		{"explain unknown net", "/v1/explain", ExplainRequest{Netlist: up.ID, Nets: []string{"nope"}, Vector: testVector(0)}, 400, `sta: explain: unknown net "nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			if code := post(t, ts.URL+tc.url, tc.body, &er); code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, er.Error, tc.want)
			}
			if er.Error != tc.wantErr {
				t.Fatalf("error %q, want %q", er.Error, tc.wantErr)
			}
		})
	}
}

// TestUploadCellErrorHidesLibraryPath: a cell the library cannot supply is
// a 400 naming only the cell — never the daemon's model directory — while
// the log line keeps the full error under the request id.
func TestUploadCellErrorHidesLibraryPath(t *testing.T) {
	var logBuf bytes.Buffer
	s, ts := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	dir := s.cfg.Registry.dir
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ cell, want string }{
		{"bogus", `cell "bogus": no model in the library`},
		{"broken", `cell "broken": model failed to load`},
	} {
		id := "upload-" + tc.cell
		body := fmt.Sprintf(`{"netlist":"input a\ngate g1 %s y a\noutput y"}`, tc.cell)
		req, err := http.NewRequest("POST", ts.URL+"/v1/netlists", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.cell, resp.StatusCode)
		}
		if strings.Contains(string(raw), dir) {
			t.Fatalf("%s: answer leaks the library directory: %s", tc.cell, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error != tc.want {
			t.Fatalf("%s: error %q (%v), want %q", tc.cell, er.Error, err, tc.want)
		}
		var logged bool
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(line, `"id":"`+id+`"`) && strings.Contains(line, filepath.Join(dir, tc.cell+".json")) {
				logged = true
			}
		}
		if !logged {
			t.Fatalf("%s: no log line carries the request id and the full error:\n%s", tc.cell, logBuf.String())
		}
	}
}

// TestMetricsEndpoint: /metrics must be valid JSON carrying the request,
// cache and workload counters plus per-endpoint latency histograms.
// TestImplicitOKCountedInStatusClasses pins the statusWriter contract: the
// success paths write JSON bodies without ever calling WriteHeader, so the
// implicit 200 must be captured on the first Write and land in the 2xx
// class counter — not vanish into an unclassified zero status. The class
// counters must always sum to the request count.
func TestImplicitOKCountedInStatusClasses(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A successful upload ends in writeJSON — Write with no
	// explicit WriteHeader, i.e. an implicit 200.
	uploadTestNetlist(t, ts.URL)
	if got := s.Metrics().Status2xx.Value(); got != 1 {
		t.Fatalf("status2xx = %d after one implicit-200 response, want 1", got)
	}

	// An explicit-status error response lands in its own class and must not
	// leak into (or reset) the 2xx count.
	if code := post(t, ts.URL+"/v1/netlists", UploadRequest{Netlist: "gate g bad x y"}, nil); code != 400 {
		t.Fatalf("bad netlist status %d, want 400", code)
	}
	if got := s.Metrics().Status4xx.Value(); got != 1 {
		t.Fatalf("status4xx = %d, want 1", got)
	}
	if got := s.Metrics().Status2xx.Value(); got != 1 {
		t.Fatalf("status2xx = %d after a 4xx response, want still 1", got)
	}

	// Every further implicit-200 response keeps counting.
	uploadTestNetlist(t, ts.URL)
	if got := s.Metrics().Status2xx.Value(); got != 2 {
		t.Fatalf("status2xx = %d after second upload, want 2", got)
	}
	if reqs, classes := 3, s.Metrics().Status2xx.Value()+s.Metrics().Status4xx.Value()+s.Metrics().Status5xx.Value(); classes != int64(reqs) {
		t.Fatalf("status classes sum to %d, want the request count %d", classes, reqs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadTestNetlist(t, ts.URL)
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Netlist: up.ID, Vector: testVector(0)}, &AnalyzeResponse{})
	post(t, ts.URL+"/v1/analyze:batch",
		BatchRequest{Netlist: up.ID, Vectors: [][]Event{testVector(0), testVector(5)}}, &BatchResponse{})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	reqs, ok := doc["requests"].(map[string]any)
	if !ok || reqs["analyze"] != 1.0 || reqs["analyze:batch"] != 1.0 || reqs["netlists"] != 1.0 {
		t.Fatalf("request counters %v", doc["requests"])
	}
	cache, ok := doc["modelCache"].(map[string]any)
	if !ok || cache["misses"].(float64) < 1 {
		t.Fatalf("cache counters %v", doc["modelCache"])
	}
	if doc["vectors"] != 3.0 {
		t.Fatalf("vectors %v, want 3", doc["vectors"])
	}
	if doc["gatesEvaluated"].(float64) < 9 {
		t.Fatalf("gatesEvaluated %v, want >= 9", doc["gatesEvaluated"])
	}
	lats, ok := doc["latencies"].(map[string]any)
	if !ok || lats["analyze"] == nil {
		t.Fatalf("latencies %v", doc["latencies"])
	}
}
