package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/wal"
	"repro/internal/whatif"
)

// spanHeader carries the request id from the client span to the httpapi
// span recorded by the wrapping handler.
const spanHeader = "X-Bench-Span"

// span is one timed call at a layer boundary. Spans of one request share
// ID; Parent names the layer whose span caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"`    // direct-call kind
	Class  string `json:"class,omitempty"` // op class, on client spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records the spans of a traced run. Read ops are re-issued as
// direct calls on the served database right after their HTTP reply;
// mutations are replayed in reply order on a twin database and a twin
// ledger built from the same seed, and appended to a scratch WAL with the
// server's sync settings. A nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
	scan   []query.Stats
	failed int // direct calls that returned an error
	errs   []string

	live     *ppdb.DB
	attrSens privacy.AttributeSensitivities

	// mut serializes the mutation replay and guards the fields below.
	mut     sync.Mutex
	twin    *ppdb.DB
	led     *ledger.Ledger
	asr     *core.Assessor // built from the live policy
	polVer  uint64
	version uint64 // prefs version of the twin ledger's rows
	scratch core.Scratch
	wlog    *wal.Log
}

func (t *tracer) newSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id uint64, name, parent, op string, start, end time.Time) {
	s := span{ID: id, Name: name, Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f as one span.
func (t *tracer) timed(id uint64, name, parent, op string, f func()) {
	start := time.Now()
	f()
	t.record(id, name, parent, op, start, time.Now())
}

// call runs f as one span of request o, counts its error, and reports
// whether it succeeded.
func (t *tracer) call(id uint64, o *op, name, parent string, f func() error) bool {
	var err error
	t.timed(id, name, parent, o.call, func() { err = f() })
	t.check(o, err)
	return err == nil
}

// wrap is the httpapi span: a handler around (*httpapi.Server).ServeHTTP.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		// Requests without the header (set-up, scrapes) are not traced.
		if id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); err == nil {
			t.record(id, "httpapi", "client", "", start, time.Now())
		}
	})
}

// after records the client span of one request and re-issues its work as
// direct calls into the layers below httpapi.
func (t *tracer) after(id uint64, o *op, start time.Time, rtt time.Duration, err error) {
	if t == nil || id == 0 {
		return
	}
	cs := span{ID: id, Name: "client", Op: o.call, Class: o.class,
		Start: start.Sub(t.t0).Nanoseconds(), End: start.Add(rtt).Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, cs)
	t.mu.Unlock()
	if err != nil {
		return
	}
	db := t.live
	direct := func(f func() error) { t.call(id, o, "ppdb", "httpapi", f) }
	switch o.call {
	case callQueryPoint, callQueryScan, callQueryRefused:
		t.call(id, o, "relational.Parse", "ppdb", func() error {
			_, err := relational.Parse(o.query.SQL)
			return err
		})
		var res *query.Result
		direct(func() error {
			var err error
			res, err = db.QueryEnforced(*o.query)
			if o.call == callQueryRefused {
				return expectDenied(err)
			}
			return err
		})
		if o.call == callQueryScan && res != nil {
			t.mu.Lock()
			t.scan = append(t.scan, res.Stats)
			t.mu.Unlock()
		}
	case callSelfAudit:
		direct(func() error { _, err := db.SelfAudit(o.key); return err })
	case callSelfData:
		direct(func() error { _, err := db.ProviderView(o.key); return err })
	case callSummary:
		direct(func() error { _, err := db.CertifySummary(alpha); return err })
	case callCertify:
		t.certifyLayers(id, o)
	case callWhatIf:
		var req whatif.Request
		if err := json.Unmarshal(o.body, &req); err != nil {
			t.check(o, err)
			return
		}
		direct(func() error { _, err := db.WhatIf(&req); return err })
		t.mut.Lock()
		t.call(id, o, "whatif.shadow", "ppdb", func() error {
			_, _, _, err := whatif.ApplyDiff(t.asr.Policy(), t.attrSens, &req.Diff, "", privacy.DefaultScales())
			if err == nil {
				_, err = whatif.NewEngine(t.asr, t.attrSens, core.Options{}, t.polVer, &req, privacy.DefaultScales())
			}
			return err
		})
		t.mut.Unlock()
	case callRegisterOne, callRegisterBatch, callImportCSV, callSetPolicy:
		t.replay(id, o)
	}
}

// certifyLayers times the layers under GET /v1/certify by direct call:
// the served DB's Certify, the twin ledger's Snapshot and the columnar
// kernel over the twin population.
func (t *tracer) certifyLayers(id uint64, o *op) {
	t.call(id, o, "ppdb", "httpapi", func() error { _, err := t.live.Certify(alpha); return err })
	t.mut.Lock()
	defer t.mut.Unlock()
	t.timed(id, "ledger.Snapshot", "ppdb", o.call, func() { t.led.Snapshot() })
	t.timed(id, "core.population", "ppdb", o.call, t.assessPopulation)
}

// expectDenied maps the refusal a refused-purpose query must produce to
// success, and anything else to an error.
func expectDenied(err error) error {
	var denied *query.DeniedError
	if errors.As(err, &denied) {
		return nil
	}
	return fmt.Errorf("refused-purpose query: got %v, want a denial", err)
}

// check counts a failed direct call: the traced numbers of a call that
// did not do its work would be wrong.
func (t *tracer) check(o *op, err error) {
	if err == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, "direct "+o.call+": "+err.Error())
	}
}

// replay applies one acknowledged mutation to the twin database and
// ledger, in reply order, timing each layer it reaches.
func (t *tracer) replay(id uint64, o *op) {
	t.mut.Lock()
	defer t.mut.Unlock()
	if o.call == callImportCSV {
		t.call(id, o, "ppdb", "httpapi", func() error {
			_, err := t.twin.ImportCSV(table, bytes.NewReader(o.body))
			return err
		})
		return
	}
	var doc *policydsl.Document
	if !t.call(id, o, "policydsl.Parse", "httpapi", func() error {
		var err error
		doc, err = policydsl.Parse(string(o.body))
		return err
	}) {
		return
	}
	if o.call == callSetPolicy {
		t.call(id, o, "ppdb", "httpapi", func() error {
			_, err := t.twin.SetPolicy(doc.Policy)
			return err
		})
		asr, err := core.NewAssessor(doc.Policy, t.attrSens, core.Options{})
		if err != nil {
			t.check(o, err)
			return
		}
		t.asr = asr
		t.polVer++
		t.timed(id, "ledger.Rebuild", "ppdb", o.call, func() { t.led.Rebuild(asr, t.polVer) })
		t.walAppend(id, o)
		return
	}
	t.call(id, o, "ppdb", "httpapi", func() error { return t.twin.RegisterProviders(doc.Providers) })
	for _, p := range doc.Providers {
		var c *core.CompiledPrefs
		t.timed(id, "core.Compile", "ppdb", o.call, func() { c = t.asr.Compile(p) })
		if c != nil {
			t.timed(id, "core.AssessCompiled", "ppdb", o.call, func() { t.asr.AssessCompiled(c, &t.scratch) })
		}
		t.version++
		if c != nil {
			c.PrefsVersion = t.version
		}
		key := strings.ToLower(p.Provider)
		t.timed(id, "ledger.UpsertCompiled", "ppdb", o.call, func() { t.led.UpsertCompiled(key, p, c, t.version) })
	}
	t.walAppend(id, o)
}

// walAppend times one append and its commit wait on the scratch log, with
// a record the size of the request body.
func (t *tracer) walAppend(id uint64, o *op) {
	t.call(id, o, "wal.Append", "ppdb", func() error {
		lsn, err := t.wlog.AppendAsync(wal.Record{Type: 1, Data: o.body})
		if err != nil {
			return err
		}
		return t.wlog.WaitDurable(lsn)
	})
}

// assessPopulation is the columnar kernel over the whole twin population
// with the benchmark's own assessor: Compile, AssessCompiled and
// AssemblePopulation.
func (t *tracer) assessPopulation() {
	ps := t.twin.Providers()
	rows := make([]core.ProviderReport, len(ps))
	for i, p := range ps {
		if c := t.asr.Compile(p); c != nil {
			rows[i] = t.asr.AssessCompiled(c, &t.scratch)
		} else {
			rows[i] = t.asr.AssessOne(p)
		}
	}
	core.AssemblePopulation(rows)
}

// attach points the tracer at the served database, builds the twin
// database and ledger from the dataset and opens the scratch WAL under dir.
func (t *tracer) attach(live *ppdb.DB, ds *dataset, dir string) error {
	twin, err := newDB(policyA)
	if err != nil {
		return err
	}
	if err := twin.RegisterProviders(ds.prefs); err != nil {
		return err
	}
	for _, b := range ds.csvs {
		if _, err := twin.ImportCSV(table, bytes.NewReader(b)); err != nil {
			return err
		}
	}
	doc, err := policydsl.Parse(policyA)
	if err != nil {
		return err
	}
	asr, err := core.NewAssessor(doc.Policy, doc.AttrSens, core.Options{})
	if err != nil {
		return err
	}
	led, err := ledger.NewSharded(asr, 1, twin.ShardCount())
	if err != nil {
		return err
	}
	items := make([]ledger.Item, len(ds.prefs))
	for i, p := range ds.prefs {
		c := asr.Compile(p)
		if c != nil {
			c.PrefsVersion = uint64(i + 1)
		}
		items[i] = ledger.Item{Key: strings.ToLower(p.Provider), Prefs: p, Compiled: c, Version: uint64(i + 1)}
	}
	led.UpsertBatch(items)
	wlog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "scratch-wal"),
		SyncInterval: walSyncInterval, SyncEvery: walSyncEvery})
	if err != nil {
		return err
	}
	t.live, t.attrSens, t.twin, t.led, t.asr = live, doc.AttrSens, twin, led, asr
	t.polVer, t.version, t.wlog = 1, uint64(len(ds.prefs)), wlog
	return nil
}

func (t *tracer) close() error {
	if t.wlog == nil {
		return nil
	}
	return t.wlog.Close()
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := bw.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// byRequest indexes the spans by request id and name.
func (t *tracer) byRequest() map[uint64]map[string][]span {
	out := map[uint64]map[string][]span{}
	for _, s := range t.spans {
		m := out[s.ID]
		if m == nil {
			m = map[string][]span{}
			out[s.ID] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	return out
}

func sumMS(ss []span) float64 {
	var v float64
	for _, s := range ss {
		v += s.ms()
	}
	return v
}
