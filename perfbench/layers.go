package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/policydsl"
	"repro/internal/privacy"
)

// layerOps are the op classes the httpapi per-layer metrics are split by.
var layerOps = []string{clsQueryPoint, clsQueryScan, clsLookup, clsWrite, clsCertify, clsWhatIf, clsPolicySwap}

// ppdbCalls are the *ppdb.DB methods timed by direct call.
var ppdbCalls = []string{callQueryPoint, callQueryScan, callSelfAudit, callSelfData, callSummary,
	callRegisterOne, callRegisterBatch, callImportCSV, callCertify, callWhatIf, callSetPolicy}

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// perLayerSpecs lists every per-layer metric a traced run prints.
func perLayerSpecs() []metricSpec {
	specs := []metricSpec{{"loadgen.late_p99_ms", "ms"}}
	for _, part := range []struct{ name, unit string }{
		{"handler_ms", "ms"}, {"self_ms", "ms"}, {"wire_ms", "ms"}, {"resp_kb", "KiB"}} {
		for _, op := range layerOps {
			specs = append(specs, metricSpec{"httpapi." + part.name + "." + op, part.unit})
		}
	}
	specs = append(specs,
		metricSpec{"policydsl.parse_ms.write", "ms"}, metricSpec{"policydsl.parse_ms.policy_swap", "ms"},
		metricSpec{"policydsl.parse_s.setup", "s"},
		metricSpec{"relational.parse_us.query", "us"},
		metricSpec{"query.rows_scanned_per_returned", "ratio"}, metricSpec{"query.suppressed_frac", "ratio"},
		metricSpec{"query.generalized_frac", "ratio"})
	for _, c := range ppdbCalls {
		specs = append(specs, metricSpec{"ppdb.call_ms." + c, "ms"})
	}
	return append(specs,
		metricSpec{"core.compile_us", "us"}, metricSpec{"core.assess_us", "us"}, metricSpec{"core.population_ms", "ms"},
		metricSpec{"ledger.snapshot_ms", "ms"}, metricSpec{"ledger.upsert_us", "us"},
		metricSpec{"ledger.memo_hit_frac", "ratio"}, metricSpec{"ledger.rebuilds_per_swap", "ratio"},
		metricSpec{"whatif.eval_ms", "ms"}, metricSpec{"whatif.shadow_build_ms", "ms"},
		metricSpec{"whatif.affected_frac", "ratio"}, metricSpec{"whatif.memo_reuse_frac", "ratio"},
		metricSpec{"wal.records_per_fsync", "ratio"}, metricSpec{"wal.fsync_ms", "ms"},
		metricSpec{"wal.append_wait_ms", "ms"}, metricSpec{"wal.bytes_per_body_byte", "ratio"},
		metricSpec{"proc.cpu_ms_per_req", "ms"}, metricSpec{"proc.allocs_per_req", "count"},
		metricSpec{"proc.gc_cpu_frac", "ratio"})
}

func specNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// probeRun is the probe issued after a timed window, with its own counter
// scrapes: it supplies the counter-based metrics of op classes the
// workload's mix lacks.
type probeRun struct {
	rec           *recorder
	before, after counters
	walBytes      int64
}

// maxHTTPCertify is the largest population the probe certifies over HTTP.
// The body grows by ~5 KB per provider and the server holds several copies
// while encoding it: at 100k providers one request needs gigabytes.
const maxHTTPCertify = 20000

// probe issues one request of every op class and direct-call kind after
// the window, so every per-layer metric has a sample on every workload.
// Only statuses are checked: the window's streams own the stricter checks.
// With mutationsOnly it sends just the ops the counter-based metrics read
// (writes, what-if and a swap). Above maxHTTPCertify providers the
// certification is timed by direct calls only.
func probe(s *server, w *world, tr *tracer, mutationsOnly bool) (*recorder, error) {
	c := newClient(s.base)
	defer c.closeIdle()
	status, body, err := c.do(http.MethodGet, "/v1/certify/summary", nil, 0)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("probe: summary: status %d: %v", status, err)
	}
	var sum struct{ PolicyName string }
	if err := json.Unmarshal(body, &sum); err != nil {
		return nil, err
	}
	toB := sum.PolicyName == policyAName
	gen := clientGen(0, 9)
	fresh := make([]*privacy.Prefs, 16)
	keys := make([]string, 4)
	rows := make([][3]float64, 4)
	for i := range fresh {
		fresh[i] = gen.Provider(fmt.Sprintf("probe-%02d", i)).Prefs
	}
	for i := range keys {
		keys[i], rows[i] = fresh[i].Provider, w.ds.rows[i]
	}
	k0 := w.ds.keys[0]
	n := len(w.ds.keys)
	ops := []*op{
		pointQuery(w, 0), scanQuery(clientRNG(0, 9), n), refusedQuery(w, 0),
		selfAudit(k0, 0), selfData(k0, nil), summary(func() int { return 0 }, func() int { return 0 }),
		register([]*privacy.Prefs{gen.Provider(k0).Prefs}, func() {}), register(fresh, func() {}),
		load(keys, rows, func() {}), certifyOp(nil), whatifOp(toB, nil), swapOp(toB, nil),
	}
	rec := newRecorder()
	for _, o := range ops {
		if mutationsOnly && o.class != clsWrite && o.class != clsWhatIf && o.class != clsPolicySwap {
			continue
		}
		if o.class == clsCertify && n > maxHTTPCertify {
			if tr != nil {
				tr.certifyLayers(tr.newSpan(), o)
			}
			continue
		}
		want := http.StatusOK
		if o.call == callQueryRefused {
			want = http.StatusForbidden
		}
		o.check = func(status int, _ []byte) error { return expectStatus(status, want) }
		span := tr.newSpan()
		t0, rtt, size, err := exec(c, o, span)
		rec.add(o, 0, rtt, size, err)
		tr.after(span, o, t0, rtt, err)
	}
	return rec, nil
}

// runTraced prints the per-layer metrics. It runs one untraced window and
// a probe with counter scrapes around each, then sets up a fresh server,
// twin and tracer from the same seed and replays the same request stream
// traced. Each window takes half of cfg.seconds, so a traced run measures
// as long as a timed one.
func runTraced(cfg config, ds *dataset, dir string, w io.Writer) (res *result, err error) {
	cfg.seconds = max(cfg.seconds/2, 1)
	dur := time.Duration(cfg.seconds) * time.Second
	s, _, err := setup(filepath.Join(dir, "timed"), ds, nil)
	if err != nil {
		return nil, err
	}
	tr1, err := timedWindow(cfg, s, ds)
	var probed *probeRun
	if err == nil {
		probed, err = probePhase(s, ds)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s = nil
	runtime.GC()

	t := &tracer{t0: time.Now()}
	tdir := filepath.Join(dir, "traced")
	s, _, err = setup(tdir, ds, t.wrap)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, t.close(), s.close()) }()
	parseStart := time.Now()
	for _, b := range ds.batches {
		if _, err := policydsl.Parse(string(b)); err != nil {
			return nil, err
		}
	}
	parseSetup := time.Since(parseStart).Seconds()
	if err := t.attach(s.db, ds, tdir); err != nil {
		return nil, err
	}
	ds.dropBodies()
	world := &world{ds: ds}
	closed, open, elapsed := window(s, cfg.wl, world, cfg.seed, dur, t)
	prec, err := probe(s, world, t, false)
	if err != nil {
		return nil, err
	}
	if err := t.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.wl.name, cfg.seed))); err != nil {
		return nil, err
	}

	untraced := newReport()
	endToEnd(untraced, cfg.wl, tr1)
	traced := newReport()
	endToEnd(traced, cfg.wl, &timedRun{closed: closed, open: open, elapsed: elapsed})
	rep := perLayer(cfg, tr1, probed, t, prec, parseSetup)

	direct := &recorder{failed: t.failed, errs: t.errs}
	tr1.env.print(w)
	printErrs(w, tr1.closed, tr1.open, probed.rec, closed, open, prec, direct)
	untraced.print(w, "end-to-end, untraced window ("+cfg.wl.name+")")
	fmt.Fprintf(w, "# tracing overhead: traced − untraced p50\n")
	for _, name := range untraced.order {
		if strings.HasSuffix(name, "_p50_ms") {
			fmt.Fprintf(w, "  %-40s %+14.4f ms       n=%d/%d\n", name,
				traced.metrics[name].Value-untraced.metrics[name].Value, traced.samples[name], untraced.samples[name])
		}
	}
	rep.print(w, "per-layer ("+cfg.wl.name+")")
	return finish(rep, specNames(perLayerSpecs()), tr1.closed, tr1.open, probed.rec, closed, open, prec, direct), nil
}

// probePhase runs the probe untraced with counter scrapes around it.
func probePhase(s *server, ds *dataset) (*probeRun, error) {
	c := newClient(s.base)
	defer c.closeIdle()
	probed := &probeRun{}
	var err error
	if probed.before, err = scrape(c); err != nil {
		return nil, err
	}
	wal0, err := s.walBytes()
	if err != nil {
		return nil, err
	}
	if probed.rec, err = probe(s, &world{ds: ds}, nil, true); err != nil {
		return nil, err
	}
	if probed.after, err = scrape(c); err != nil {
		return nil, err
	}
	wal1, err := s.walBytes()
	probed.walBytes = wal1 - wal0
	return probed, err
}

// perLayer derives the per-layer metrics: counter deltas and the Go
// runtime's work from the untraced window (the probe's where the window's
// mix lacks the op), spans from the traced run.
func perLayer(cfg config, tr1 *timedRun, probed *probeRun, t *tracer, prec *recorder, parseSetup float64) *report {
	rep := newReport()
	late := tr1.closed.late
	if cfg.wl.name == "audit-policy" {
		late = tr1.open.late
	}
	rep.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))

	// Spans, grouped per request.
	handler, self, wire := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	named := map[string][]float64{} // "<span name>/<call>" → ms
	for _, spans := range t.byRequest() {
		for name, ss := range spans {
			for _, s := range ss {
				named[name+"/"+s.Op] = append(named[name+"/"+s.Op], s.ms())
			}
		}
		cl, hs := spans["client"], spans["httpapi"]
		if len(cl) != 1 || len(hs) != 1 {
			continue
		}
		op := cl[0].Class
		h := hs[0].ms()
		handler[op] = append(handler[op], h)
		self[op] = append(self[op], h-sumMS(spans["policydsl.Parse"])-sumMS(spans["ppdb"]))
		wire[op] = append(wire[op], cl[0].ms()-h)
	}
	spanMed := func(metric, unit string, scale float64, name string, calls ...string) {
		var xs []float64
		for key, v := range named {
			spanName, call, _ := strings.Cut(key, "/")
			if spanName != name {
				continue
			}
			if len(calls) == 0 || contains(calls, call) {
				for _, x := range v {
					xs = append(xs, x*scale)
				}
			}
		}
		rep.set(metric, median(xs), unit, len(xs))
	}
	for _, op := range layerOps {
		rep.set("httpapi.handler_ms."+op, median(handler[op]), "ms", len(handler[op]))
		rep.set("httpapi.self_ms."+op, median(self[op]), "ms", len(self[op]))
		rep.set("httpapi.wire_ms."+op, median(wire[op]), "ms", len(wire[op]))
	}
	if len(handler[clsCertify]) == 0 {
		for _, part := range []string{"handler_ms", "self_ms", "wire_ms", "resp_kb"} {
			rep.notes["httpapi."+part+"."+clsCertify] = fmt.Sprintf(
				"GET /v1/certify is not issued above %d providers: one body needs gigabytes of memory", maxHTTPCertify)
		}
	}
	for _, op := range layerOps {
		sizes := append(append([]float64(nil), tr1.closed.size[op]...), tr1.open.size[op]...)
		if len(sizes) == 0 {
			sizes = prec.size[op]
		}
		rep.set("httpapi.resp_kb."+op, median(sizes)/1024, "KiB", len(sizes))
	}

	spanMed("policydsl.parse_ms.write", "ms", 1, "policydsl.Parse", callRegisterOne, callRegisterBatch)
	spanMed("policydsl.parse_ms.policy_swap", "ms", 1, "policydsl.Parse", callSetPolicy)
	rep.set("policydsl.parse_s.setup", parseSetup, "s", 1)
	spanMed("relational.parse_us.query", "us", 1000, "relational.Parse")

	var scanned, returned, suppressed, matched, generalized float64
	for _, st := range t.scan {
		scanned += float64(st.RowsScanned)
		returned += float64(st.RowsReturned)
		suppressed += float64(st.RowsSuppressed)
		matched += float64(st.RowsMatched)
		generalized += float64(st.CellsGeneralized)
	}
	rep.set("query.rows_scanned_per_returned", ratio(scanned, returned), "ratio", len(t.scan))
	rep.set("query.suppressed_frac", ratio(suppressed, scanned), "ratio", len(t.scan))
	rep.set("query.generalized_frac", ratio(generalized, 2*matched), "ratio", len(t.scan))

	for _, c := range ppdbCalls {
		spanMed("ppdb.call_ms."+c, "ms", 1, "ppdb", c)
	}
	spanMed("core.compile_us", "us", 1000, "core.Compile")
	spanMed("core.assess_us", "us", 1000, "core.AssessCompiled")
	spanMed("core.population_ms", "ms", 1, "core.population")
	spanMed("ledger.snapshot_ms", "ms", 1, "ledger.Snapshot")
	spanMed("ledger.upsert_us", "us", 1000, "ledger.UpsertCompiled")

	// Counters: the window's deltas, or the probe's where the window's mix
	// never reached the counter.
	pick := func(names ...string) (counters, counters, bool) {
		for _, n := range names {
			if delta(tr1.before, tr1.after, n) > 0 {
				return tr1.before, tr1.after, true
			}
		}
		return probed.before, probed.after, false
	}
	b, a, _ := pick("ledger_memo_hits_total", "ledger_memo_misses_total")
	hits, misses := delta(b, a, "ledger_memo_hits_total"), delta(b, a, "ledger_memo_misses_total")
	rep.set("ledger.memo_hit_frac", ratio(hits, hits+misses), "ratio", int(hits+misses))
	b, a, inWindow := pick("ledger_rebuilds_total")
	swaps := float64(len(probed.rec.lat[clsPolicySwap]))
	if inWindow {
		swaps = float64(len(tr1.closed.lat[clsPolicySwap]))
	}
	rep.set("ledger.rebuilds_per_swap", ratio(delta(b, a, "ledger_rebuilds_total"), swaps), "ratio", int(swaps))

	b, a, _ = pick("ppdb_whatif_seconds_count")
	evals := delta(b, a, "ppdb_whatif_seconds_count")
	rep.set("whatif.eval_ms", 1000*ratio(delta(b, a, "ppdb_whatif_seconds_sum"), evals), "ms", int(evals))
	spanMed("whatif.shadow_build_ms", "ms", 1, "whatif.shadow")
	pop := evals * a["ppdb_providers"]
	rep.set("whatif.affected_frac", ratio(delta(b, a, "ppdb_whatif_affected_total"), pop), "ratio", int(evals))
	rep.set("whatif.memo_reuse_frac", ratio(delta(b, a, "ppdb_whatif_memo_reused_total"), pop), "ratio", int(evals))

	b, a, inWindow = pick("wal_fsync_total")
	fsyncs := delta(b, a, "wal_fsync_total")
	rep.set("wal.records_per_fsync", ratio(delta(b, a, "wal_append_records_total"), fsyncs), "ratio", int(fsyncs))
	rep.set("wal.fsync_ms", 1000*ratio(delta(b, a, "wal_fsync_seconds_sum"), delta(b, a, "wal_fsync_seconds_count")), "ms", int(fsyncs))
	spanMed("wal.append_wait_ms", "ms", 1, "wal.Append")
	walBytes, body := float64(probed.walBytes), float64(probed.rec.mutBytes)
	if inWindow {
		walBytes, body = float64(tr1.walBytes), float64(tr1.closed.mutBytes+tr1.open.mutBytes)
	}
	rep.set("wal.bytes_per_body_byte", ratio(walBytes, body), "ratio", int(body))

	reqs := float64(tr1.closed.attempted + tr1.open.attempted)
	rep.set("proc.cpu_ms_per_req", ratio(ms(tr1.proc.cpu), reqs), "ms", int(reqs))
	rep.set("proc.allocs_per_req", ratio(float64(tr1.proc.mallocs), reqs), "count", int(reqs))
	rep.set("proc.gc_cpu_frac", ratio(tr1.proc.gcCPU, tr1.proc.totalCPU), "ratio", int(reqs))
	return rep
}

// ratio is a/b, or 0 when the denominator (a count or a sum of
// durations, never negative) is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
