package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one latency (ms) and when it happened: seconds from the start
// of the window to the reply (closed loop) or to the due time (open loop).
// Warm-up requests, sent before the window, have a negative time.
type sample struct{ at, ms float64 }

// values are the latencies of the samples inside the window.
func values(xs []sample) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x.at >= 0 {
			out = append(out, x.ms)
		}
	}
	return out
}

// warmUp marks a request sent before the window started.
const warmUp = -1

// recorder holds one client's samples. Each client goroutine owns one;
// they are merged after the window.
type recorder struct {
	lat       map[string][]sample // per op class
	size      map[string][]float64
	late      []float64 // generator lateness, ms
	attempted int
	failed    int
	completed int   // closed-loop requests finished inside the window
	mutBytes  int64 // request body bytes of acknowledged mutations
	errs      []string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]sample{}, size: map[string][]float64{}}
}

// add records one request; at is when it counts as happening, in seconds
// from the start of the window.
func (r *recorder) add(o *op, at float64, lat time.Duration, size int, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, o.class+" "+o.path+": "+err.Error())
		}
	}
	r.lat[o.class] = append(r.lat[o.class], sample{at: at, ms: ms(lat)})
	r.size[o.class] = append(r.size[o.class], float64(size))
	if err == nil && (o.class == clsWrite || o.class == clsPolicySwap) {
		r.mutBytes += int64(len(o.body))
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.size {
		r.size[k] = append(r.size[k], v...)
	}
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.completed += o.completed
	r.mutBytes += o.mutBytes
	r.errs = append(r.errs, o.errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exec sends one op and checks its reply; every check demands an exact
// status, so a 5xx or a shed 503 fails it. It returns when the request
// was sent and its round-trip time.
func exec(c *client, o *op, span uint64) (time.Time, time.Duration, int, error) {
	t0 := time.Now()
	status, body, err := c.do(o.method, o.path, o.body, span)
	rtt := time.Since(t0)
	if err == nil {
		err = o.check(status, body)
	}
	return t0, rtt, len(body), err
}

// runClosed drives one closed-loop client until the deadline: each request
// is sent as soon as the previous reply has been checked. Generator
// lateness in a closed loop is the time the generator spends building the
// next request.
func runClosed(c *client, st stream, start, deadline time.Time, rec *recorder, tr *tracer) {
	cyc, cyclic := st.(interface{ atBoundary() bool })
	for {
		t := time.Now()
		if !t.Before(deadline) && (!cyclic || cyc.atBoundary()) {
			return
		}
		o := st.next()
		rec.late = append(rec.late, ms(time.Since(t)))
		span := tr.newSpan()
		t0, rtt, size, err := exec(c, o, span)
		end := t0.Add(rtt).Sub(start).Seconds()
		rec.add(o, end, rtt, size, err)
		rec.completed++
		tr.after(span, o, t0, rtt, err)
	}
}

// runOpen drives one open-loop client at rate requests per second until
// stop closes, on one connection. Each request is timed from when it was
// due, so a stalled server charges its stall to every request queued
// behind it. Lateness is how late the generator's timer fired; ticks that
// were overdue because the connection was still busy are excluded.
func runOpen(c *client, st stream, rate float64, start time.Time, stop <-chan struct{}, rec *recorder, tr *tracer) {
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			rec.late = append(rec.late, ms(time.Since(due)))
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		o := st.next()
		span := tr.newSpan()
		t0, rtt, size, err := exec(c, o, span)
		rec.add(o, due.Sub(start).Seconds(), t0.Add(rtt).Sub(due), size, err)
		tr.after(span, o, t0, rtt, err)
	}
}

// window runs the workload's traffic for dur against s. It returns the
// closed-loop recorder, the open-loop recorder (audit-policy only) and the
// elapsed wall time of the closed loop.
func window(s *server, wl *workload, w *world, seed int64, dur time.Duration, tr *tracer) (closed, open *recorder, elapsed time.Duration) {
	clients := make([]*client, wl.clients)
	for ci := range clients {
		clients[ci] = newClient(s.base)
	}
	defer func() {
		for _, c := range clients {
			c.closeIdle()
		}
	}()
	var streams []stream
	var churn []*churnStream
	for ci := range clients {
		switch wl.name {
		case "serve-read":
			streams = append(streams, newReadStream(w, seed, ci))
		case "provider-churn":
			cs := newChurnStream(w, seed, ci)
			churn = append(churn, cs)
			streams = append(streams, cs)
		default:
			if ci == 0 {
				streams = append(streams, newAuditStream(w, seed))
			} else {
				streams = append(streams, newLookupStream(w, seed))
			}
		}
	}
	closed, open = newRecorder(), newRecorder()
	if wl.name == "audit-policy" {
		// One untimed auditor cycle first, so the window starts with the
		// first certification's lazy set-up (pools, fresh heap) done. Its
		// requests are checked, counted and traced like any other, but not
		// timed.
		for i := 0; i < auditCycle; i++ {
			o := streams[0].next()
			span := tr.newSpan()
			t0, rtt, size, err := exec(clients[0], o, span)
			closed.add(o, warmUp, rtt, size, err)
			tr.after(span, o, t0, rtt, err)
		}
	}

	start := time.Now()
	recs := []*recorder{newRecorder(), newRecorder()}
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var ends [2]time.Time
	// The audit-policy lookup stream runs exactly as long as the auditor,
	// which ends on a cycle boundary, so it always overlaps whole cycles.
	auditorDone := make(chan struct{})
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st stream) {
			defer wg.Done()
			switch {
			case wl.name == "audit-policy" && ci == 1:
				runOpen(clients[ci], st, lookupRate, start, auditorDone, recs[ci], tr)
			case wl.name == "audit-policy":
				runClosed(clients[ci], st, start, deadline, recs[ci], tr)
				close(auditorDone)
			default:
				runClosed(clients[ci], st, start, deadline, recs[ci], tr)
			}
			ends[ci] = time.Now()
		}(ci, st)
	}
	wg.Wait()
	elapsed = ends[0].Sub(start)
	if wl.name == "audit-policy" {
		closed.merge(recs[0])
		open.merge(recs[1])
		return closed, open, elapsed
	}
	if ends[1].After(ends[0]) {
		elapsed = ends[1].Sub(start)
	}
	closed.merge(recs[0])
	closed.merge(recs[1])
	// Confirm every write the in-window lookups did not read back.
	for ci, cs := range churn {
		for _, o := range cs.pendingChecks() {
			_, _, _, err := exec(clients[ci], o, 0)
			closed.attempted++
			if err != nil {
				closed.failed++
				if len(closed.errs) < 5 {
					closed.errs = append(closed.errs, "write not visible: "+err.Error())
				}
			}
		}
	}
	return closed, open, elapsed
}

const lookupRate = 200 // audit-policy open-loop lookups per second

// setup loads the dataset into a fresh server over HTTP: provider batches,
// then the CSV rows. The returned duration excludes building the server
// and generating the bodies.
func setup(dir string, ds *dataset, wrap func(http.Handler) http.Handler) (*server, time.Duration, error) {
	s, err := startServer(dir, wrap)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base)
	defer c.closeIdle()
	t0 := time.Now()
	for _, b := range ds.batches {
		status, body, err := c.do(http.MethodPost, "/v1/providers/batch", b, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("batch ingest: status %d: %s", status, body)
		}
		if err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
	}
	loaded := 0
	for _, b := range ds.csvs {
		status, body, err := c.do(http.MethodPost, "/v1/load?table="+table, b, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("csv load: status %d: %s", status, body)
		}
		var r struct{ Loaded int }
		if err == nil {
			err = json.Unmarshal(body, &r)
		}
		if err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
		loaded += r.Loaded
	}
	d := time.Since(t0)
	var sum summaryReply
	status, body, err := c.do(http.MethodGet, "/v1/certify/summary", nil, 0)
	if err == nil {
		err = json.Unmarshal(body, &sum)
	}
	if err == nil && (status != http.StatusOK || sum.N != len(ds.keys) || loaded != len(ds.keys)) {
		err = fmt.Errorf("setup: status %d, N %d, rows %d, want %d", status, sum.N, loaded, len(ds.keys))
	}
	if err != nil {
		return nil, 0, errors.Join(err, s.close())
	}
	return s, d, nil
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
