package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// TestCheckRejectsCorruptedResponses drives real service responses for
// every workload through the output check: untouched responses pass (also
// with an extra field), and a changed arrival time or work counter fails.
func TestCheckRejectsCorruptedResponses(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "lib")
	if err := writeLibrary(lib); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := generate(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			w.reqs = w.reqs[:2] // eco-tiled keeps one delta and one analyze
			if err := w.reference(ctx, lib); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(service.New(service.Config{Registry: service.NewRegistry(lib, 8)}))
			defer srv.Close()
			if err := prepare(ctx, srv.Client(), srv.URL, w); err != nil {
				t.Fatal(err)
			}
			for i, r := range w.reqs {
				var buf bytes.Buffer
				_, body, identical, err := do(ctx, srv.Client(), srv.URL, r, "test", &buf)
				if err != nil || !identical {
					t.Fatalf("request %d: identical=%v err=%v", i, identical, err)
				}
				extended := append([]byte(`{"newField":1,`), body[1:]...)
				if _, err := r.check(extended); err != nil {
					t.Errorf("request %d: response with an added field rejected: %v", i, err)
				}
				for _, field := range []string{"timePs", "ttPs", "gatesEvaluated", "proximityEvals"} {
					bad, err := corrupt(body, field)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.check(bad); err == nil {
						t.Errorf("request %d: corrupted %s accepted", i, field)
					}
				}
			}
		})
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q := percentile(xs, 0.5); v != 50 || q != 0.5 {
		t.Errorf("p50 = %v at %v, want 50 at 0.5", v, q)
	}
	if v, q := percentile(xs, 0.99); v != 90 || q != 0.9 {
		t.Errorf("p99 of 100 samples = %v at %v, want rank lowered to 90 at 0.9", v, q)
	}
}
