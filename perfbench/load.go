package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the closed-loop client count: ECO and CI callers each wait for
// their reply, and the reference host has two CPUs.
const conns = 2

// sample is one request as the client saw it.
type sample struct {
	req        *request
	id         string // X-Request-Id, the join key to the daemon's wide events
	conn       int
	start, end time.Time
	reqBytes   int
	respBytes  int
}

// loadResult is one closed-loop run: the measured window's successful
// samples plus the outcome of every request made (warm-up included)
// against the reference.
type loadResult struct {
	samples   []sample
	stepsMs   []float64 // client latency of each completed step, sorted
	t0        time.Time
	elapsed   time.Duration // from the window's start to its last completion
	attempted int
	failed    int
	identical int // responses byte-identical to the encoded reference
	firstErr  error
	corrupted error // the checker's verdict on a deliberately corrupted response
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// do sends one pooled request and checks the answer. It returns the
// response body (nil on failure) and the reason it failed, if it did.
func do(ctx context.Context, client *http.Client, base string, r *request, id string, buf *bytes.Buffer) (s sample, body []byte, identical bool, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return s, nil, false, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", id)
	s = sample{req: r, id: id, reqBytes: len(r.body), start: time.Now()}
	resp, err := client.Do(hr)
	if err != nil {
		return s, nil, false, err
	}
	buf.Reset()
	buf.Grow(len(r.expect) + 4096)
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	if err != nil {
		return s, nil, false, err
	}
	s.respBytes = buf.Len()
	if resp.StatusCode != http.StatusOK {
		return s, nil, false, fmt.Errorf("%s: status %d: %s", r.path(), resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	body = buf.Bytes()
	identical, err = r.check(body)
	return s, body, identical, err
}

// runLoad warms the daemon with one pass over the pool, then drives the
// pool round-robin from conns closed-loop clients for the given duration,
// one step (w.step requests on one connection) at a time. Every response of
// both phases is checked against the reference; the first warm-up response
// is additionally corrupted and re-checked, so each run proves the check
// can fail.
func runLoad(ctx context.Context, client *http.Client, base string, w *workload, dur time.Duration) loadResult {
	res := loadResult{corrupted: fmt.Errorf("no warm-up response to corrupt")}
	type connOut struct {
		samples                      []sample
		steps                        []float64
		attempted, failed, identical int
		firstErr                     error
	}
	outs := make([]connOut, conns)
	steps := int64(len(w.reqs) / w.step)
	pass := func(measure bool, t0 time.Time) {
		phase := "w"
		if measure {
			phase = "m"
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := &outs[c]
				var buf bytes.Buffer
				for ctx.Err() == nil {
					n := next.Add(1) - 1
					if measure && time.Since(t0) >= dur || !measure && n >= steps {
						return
					}
					var stepStart time.Time
					for j := 0; j < w.step; j++ {
						r := w.reqs[int(n%steps)*w.step+j]
						id := phase + strconv.FormatInt(n*int64(w.step)+int64(j), 10)
						s, body, identical, err := do(ctx, client, base, r, id, &buf)
						s.conn = c
						o.attempted++
						if err != nil {
							o.failed++
							if o.firstErr == nil {
								o.firstErr = err
							}
							break
						}
						if identical {
							o.identical++
						}
						if !measure && n == 0 && j == 0 {
							res.corrupted = verifyCorruptionCaught(r, body)
						}
						if j == 0 {
							stepStart = s.start
						}
						if measure {
							o.samples = append(o.samples, s)
							if j == w.step-1 {
								o.steps = append(o.steps, float64(s.end.Sub(stepStart))/1e6)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	pass(false, time.Time{})
	res.t0 = time.Now()
	pass(true, res.t0)
	var last time.Time
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		res.identical += o.identical
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
		for _, s := range o.samples {
			if s.end.After(last) {
				last = s.end
			}
		}
		res.samples = append(res.samples, o.samples...)
		res.stepsMs = append(res.stepsMs, o.steps...)
	}
	sort.Float64s(res.stepsMs)
	res.elapsed = last.Sub(res.t0)
	if ctx.Err() != nil && res.firstErr == nil {
		res.firstErr = ctx.Err()
	}
	return res
}

// verifyCorruptionCaught returns nil when the checker rejects a corrupted
// copy of a response it accepted.
func verifyCorruptionCaught(r *request, body []byte) error {
	bad, err := corrupt(body, "timePs")
	if err != nil {
		return err
	}
	if _, err := r.check(bad); err == nil {
		return fmt.Errorf("output check accepted a corrupted response")
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of sorted values, with the
// rank lowered where needed so that at least 10 samples lie beyond it. It
// also returns the quantile actually reported.
func percentile(sorted []float64, q float64) (v, used float64) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k > n-10 {
		k = n - 10
	}
	if k < 1 {
		k = 1
	}
	return sorted[k-1], float64(k) / float64(n)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
