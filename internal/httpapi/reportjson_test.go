package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/ppdb"
	"repro/internal/privacy"
)

// encodingJSON is what writeJSON sends for v — json.Encoder with
// SetIndent("", "  "), trailing newline included — or the error
// encoding/json refuses v with.
func encodingJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func indentedJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := encodingJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// generatedDB registers n generated providers, plus a few whose names need
// escaping, under a policy most of them violate along several dimensions.
// The batch registration fans out at GOMAXPROCS procs — the "shards" the
// sweep's subtests are named after.
func generatedDB(t *testing.T, n, procs int) *ppdb.DB {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"care", "research"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"care"}},
		},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("gen<&>")
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 3})
	hp.Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 1, Retention: 4})
	hp.Add("income", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 2})
	db, err := ppdb.New(ppdb.Config{Policy: hp, AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(n))
	for _, name := range []string{"<b>&amp;", "tab\tnul\x00", "sep\u2028\u2029", "bad\xffutf8", "\u00fcn\u00ef"} {
		p := privacy.NewPrefs(name, 0.5)
		p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 1, Granularity: 1, Retention: 1})
		pop = append(pop, p)
	}
	if err := db.RegisterProviders(pop); err != nil {
		t.Fatal(err)
	}
	return db
}

// clinicDB boots the store ppdbserver serves for examples/corpus/clinic.dsl.
func clinicDB(t *testing.T) *ppdb.DB {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "corpus", "clinic.dsl"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(doc.Providers); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReportRoutesMatchEncodingJSON pins GET /v1/certify and
// GET /v1/self/audit, served through the whole handler, to the bytes
// encoding/json's indented encoder writes for the same Certify and
// SelfAudit values.
func TestReportRoutesMatchEncodingJSON(t *testing.T) {
	empty, err := ppdb.New(ppdb.Config{Policy: privacy.NewHousePolicy("empty")})
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		db   *ppdb.DB
	}{
		{"generated/shards=1", generatedDB(t, 400, 1)},
		{"generated/shards=2", generatedDB(t, 400, 2)},
		{"generated/shards=8", generatedDB(t, 400, 8)},
		{"clinic", clinicDB(t)},
		{"empty", empty},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			srv, err := New(st.db)
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0, 0.1, 1} {
				rec := do(t, srv, http.MethodGet, "/v1/certify?alpha="+strconv.FormatFloat(alpha, 'g', -1, 64), "")
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("certify = %d %q", rec.Code, rec.Header().Get("Content-Type"))
				}
				cert, err := st.db.Certify(alpha)
				if err != nil {
					t.Fatal(err)
				}
				if want := indentedJSON(t, cert); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("alpha=%g: certify body differs from encoding/json at byte %d (%d vs %d bytes)",
						alpha, firstDiff(rec.Body.Bytes(), want), rec.Body.Len(), len(want))
				}
				if len(cert.Report.Providers) == 0 {
					if cert.Report.Providers == nil || cert.WouldDefault != nil {
						t.Fatalf("empty store: Providers %#v, WouldDefault %#v", cert.Report.Providers, cert.WouldDefault)
					}
					if !bytes.Contains(rec.Body.Bytes(), []byte(`"Providers": []`)) ||
						!bytes.Contains(rec.Body.Bytes(), []byte(`"WouldDefault": null`)) {
						t.Fatalf("empty store body:\n%s", rec.Body)
					}
				}
			}
			cert, err := st.db.Certify(0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range cert.Report.Providers {
				rec := do(t, srv, http.MethodGet, "/v1/self/audit?provider="+url.QueryEscape(pr.Provider), "")
				if rec.Code != http.StatusOK {
					t.Fatalf("self audit %q = %d %s", pr.Provider, rec.Code, rec.Body)
				}
				rep, err := st.db.SelfAudit(pr.Provider)
				if err != nil {
					t.Fatal(err)
				}
				if want := indentedJSON(t, rep); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("self audit %q differs from encoding/json:\n got %s\nwant %s", pr.Provider, rec.Body, want)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// failingWriter is a ResponseWriter whose connection drops after limit
// bytes: the Write that crosses the limit fails, as does every later one.
type failingWriter struct {
	header  http.Header
	limit   int
	written int  // bytes accepted
	offered int  // bytes passed to Write, accepted or not
	broken  bool // a Write has failed
	failed  int  // Write calls made after the first failure
}

var errHungUp = errors.New("client hung up")

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	w.offered += len(p)
	if w.broken {
		w.failed++
		return 0, errHungUp
	}
	if n := w.limit - w.written; len(p) > n {
		w.written, w.broken = w.limit, true
		return n, errHungUp
	}
	w.written += len(p)
	return len(p), nil
}

// TestReportWriterStopsOnHangUp drops the connection partway through a
// multi-chunk certification: the handler must make no Write after the
// failed one and must not encode the rest of the body.
func TestReportWriterStopsOnHangUp(t *testing.T) {
	db := generatedDB(t, 400, 2)
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := db.Certify(0.1)
	if err != nil {
		t.Fatal(err)
	}
	full := len(indentedJSON(t, cert))
	if full < 4*reportChunk {
		t.Fatalf("body is %d bytes; the test needs several chunks", full)
	}
	for _, limit := range []int{0, 100, reportChunk, 2*reportChunk + 7} {
		w := &failingWriter{header: http.Header{}, limit: limit}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/certify?alpha=0.1", nil))
		if w.failed != 0 {
			t.Errorf("limit %d: %d Write calls after the failed one", limit, w.failed)
		}
		if w.offered > limit+2*reportChunk {
			t.Errorf("limit %d: offered %d bytes of a %d-byte body", limit, w.offered, full)
		}
	}

	// Below the handler: once a Write fails, the rows after it are never
	// encoded, so the buffer holds at most the chunk that failed plus the
	// one row in progress.
	w := &failingWriter{header: http.Header{}, limit: reportChunk}
	rw := reportWriter{w: w}
	rw.certification(cert)
	if !errors.Is(rw.err, errHungUp) {
		t.Fatalf("err = %v, want the write error", rw.err)
	}
	if len(rw.buf) > 2*reportChunk {
		t.Errorf("encoded %d bytes past the failed write; want at most one more chunk", len(rw.buf))
	}
}

// TestSensitivityCapKeepsReportsEncodable is the regression test for
// weights large enough to push a violation to +Inf: once one such
// provider is stored, encoding/json refuses every certification after the
// 200 is sent, and /v1/certify answers an empty body to every client. The
// registration and the what-if that would get there are 400s now, and the
// reports still decode.
func TestSensitivityCapKeepsReportsEncodable(t *testing.T) {
	srv := testServer(t)
	huge := `provider "huge" threshold 5 { attr weight {
		sens value=1e300 v=1e300 g=1e300 r=1e300
		tuple purpose=care visibility=none granularity=none retention=none } }`
	if rec := do(t, srv, http.MethodPost, "/v1/providers", huge); rec.Code != http.StatusBadRequest {
		t.Fatalf("registration with 1e300 weights = %d %s, want 400", rec.Code, rec.Body)
	}
	// Two providers violated on weight: a Σ^weight of 1e308 is finite for
	// each alone and +Inf once their violations are summed.
	for _, name := range []string{"ann", "bo"} {
		doc := `provider "` + name + `" threshold 5 { attr weight {
			sens value=1 v=1 g=1 r=1
			tuple purpose=care visibility=owner granularity=existential retention=transient } }`
		if rec := do(t, srv, http.MethodPost, "/v1/providers", doc); rec.Code != http.StatusOK {
			t.Fatalf("register %s = %d %s", name, rec.Code, rec.Body)
		}
	}
	whatIf := `{"u":10,"diff":{"sensitivity":[{"attribute":"weight","value":1e308}]}}`
	if rec := do(t, srv, http.MethodPost, "/v1/whatif", whatIf); rec.Code != http.StatusBadRequest {
		t.Fatalf("what-if with Σ 1e308 = %d %s, want 400", rec.Code, rec.Body)
	}
	var cert ppdb.Certification
	rec := do(t, srv, http.MethodGet, "/v1/certify", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &cert); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("certify = %d, decode: %v\n%s", rec.Code, err, rec.Body)
	}
	if cert.Report.N != 3 || cert.Report.ViolatedCount != 2 {
		t.Errorf("N %d, violated %d; want 3 and 2", cert.Report.N, cert.Report.ViolatedCount)
	}
	for _, path := range []string{"/v1/certify/summary", "/v1/self/audit?provider=ann"} {
		rec := do(t, srv, http.MethodGet, path, "")
		if !json.Valid(rec.Body.Bytes()) || rec.Code != http.StatusOK {
			t.Errorf("%s = %d %s", path, rec.Code, rec.Body)
		}
	}
}

// benchShapedDB registers n generated providers of the perfbench shape
// under its policy A, as the benchmark's server holds them.
func benchShapedDB(tb testing.TB, n int) *ppdb.DB {
	tb.Helper()
	doc, err := policydsl.Parse(population.BenchPolicyDSL("A", "third-party"))
	if err != nil {
		tb.Fatal(err)
	}
	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens})
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := population.NewGenerator(population.BenchConfig(), 5)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.RegisterProviders(population.PrefsOf(gen.Generate(n))); err != nil {
		tb.Fatal(err)
	}
	return db
}

// renderWorkers counts the goroutines inside a render-ahead worker.
func renderWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("(*renderAhead).work("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// withProcs runs f at GOMAXPROCS procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestCertificationParallelMatchesEncodingJSON pins the render-ahead
// writer to encoding/json around its block boundaries: Providers arrays of
// 0, 1, B−1, B, B+1, 2B−1, 2B and 3B+1 elements (B = certBlock; the
// pipeline starts at 2B) and a 2k perfbench-shaped store, whose 167
// blocks reuse every slot of the window, rendered at GOMAXPROCS 1, 2 and
// 8. An encoding error in a middle block fails the response as
// encoding/json fails it, and neither that error nor a hang-up leaves a
// worker running.
func TestCertificationParallelMatchesEncodingJSON(t *testing.T) {
	gen, err := generatedDB(t, 3*certBlock, 2).Certify(0.1)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := benchShapedDB(t, 2000).Certify(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Report.Providers) <= 3*certBlock {
		t.Fatalf("generated %d providers; want more than 3B", len(gen.Report.Providers))
	}
	certs := map[string]*ppdb.Certification{"perfbench-2k": shaped}
	for _, n := range []int{0, 1, certBlock - 1, certBlock, certBlock + 1, 2*certBlock - 1, 2 * certBlock, 3*certBlock + 1} {
		c := *gen
		c.Report.Providers = gen.Report.Providers[:n]
		certs["n="+strconv.Itoa(n)] = &c
	}
	for name, c := range certs {
		want := indentedJSON(t, c)
		for _, procs := range []int{1, 2, 8} {
			rec := httptest.NewRecorder()
			withProcs(procs, func() { err = writeCertification(rec, c) })
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s at GOMAXPROCS %d: differs from encoding/json at byte %d (%d vs %d bytes)",
					name, procs, firstDiff(got, want), len(got), len(want))
			}
		}
	}

	// A NaN violation in the last provider of block 1 of 167.
	nan := *shaped
	nan.Report.Providers = append([]core.ProviderReport(nil), shaped.Report.Providers...)
	nan.Report.Providers[2*certBlock-1].Violation = math.NaN()
	if _, err := encodingJSON(&nan); err == nil {
		t.Fatal("encoding/json accepted a NaN violation")
	}
	full := len(indentedJSON(t, shaped))
	for _, procs := range []int{2, 8} {
		withProcs(procs, func() { err = writeCertification(httptest.NewRecorder(), &nan) })
		if err == nil {
			t.Errorf("GOMAXPROCS %d: a NaN violation wrote a certification", procs)
		}
		if n := renderWorkers(); n != 0 {
			t.Errorf("GOMAXPROCS %d: %d render workers left after the encoding error", procs, n)
		}
		for _, limit := range []int{0, reportChunk, full / 2} {
			w := &failingWriter{header: http.Header{}, limit: limit}
			withProcs(procs, func() { err = writeCertification(w, shaped) })
			if !errors.Is(err, errHungUp) || w.failed != 0 || w.offered > limit+2*reportChunk {
				t.Errorf("GOMAXPROCS %d, hang-up at %d: err %v, %d Writes after the failure, %d bytes offered",
					procs, limit, err, w.failed, w.offered)
			}
			if n := renderWorkers(); n != 0 {
				t.Errorf("GOMAXPROCS %d, hang-up at %d: %d render workers left", procs, limit, n)
			}
		}
	}
}
