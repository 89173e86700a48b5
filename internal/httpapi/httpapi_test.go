package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	hp := privacy.NewHousePolicy("v1")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := ppdb.New(ppdb.Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("maria", 50)
	p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	if err := db.RegisterProvider(p); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", "maria", relational.Row{relational.Text("maria"), relational.Float(61.5)}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func do(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestNewNilDB(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil db should fail")
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodPost, "/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT provider, weight FROM t"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "maria" || out.Rows[0][1] != "61.5" {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestQueryDenied(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodPost, "/query",
		`{"requester":"ads","purpose":"marketing","visibility":2,"sql":"SELECT weight FROM t"}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "no policy tuple") {
		t.Errorf("body = %s", rec.Body)
	}
}

func TestQueryBadRequests(t *testing.T) {
	srv := testServer(t)
	if rec := do(t, srv, http.MethodPost, "/query", "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/query",
		`{"purpose":"care","visibility":2,"sql":"DELETE FROM t"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("non-SELECT status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/query", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", rec.Code)
	}
}

func TestCertifyEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodGet, "/certify?alpha=0.5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var cert struct {
		Alpha       float64 `json:"Alpha"`
		IsAlphaPPDB bool    `json:"IsAlphaPPDB"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Alpha != 0.5 || !cert.IsAlphaPPDB {
		t.Errorf("cert = %+v (body %s)", cert, rec.Body)
	}
	if rec := do(t, srv, http.MethodGet, "/certify?alpha=bogus", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad alpha status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/certify?alpha=2", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range alpha status = %d", rec.Code)
	}
}

// TestCertifySummaryEndpoint exercises the O(1) aggregate certification
// served from the violation ledger.
func TestCertifySummaryEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodGet, "/certify/summary?alpha=0.5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var sum struct {
		Alpha         float64 `json:"Alpha"`
		N             int     `json:"N"`
		PolicyName    string  `json:"PolicyName"`
		PolicyVersion uint64  `json:"PolicyVersion"`
		IsAlphaPPDB   bool    `json:"IsAlphaPPDB"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Alpha != 0.5 || sum.N != 1 || sum.PolicyName != "v1" || sum.PolicyVersion != 1 || !sum.IsAlphaPPDB {
		t.Errorf("summary = %+v (body %s)", sum, rec.Body)
	}
	// No per-provider rows in the summary payload.
	if strings.Contains(rec.Body.String(), "Providers") {
		t.Error("summary must not materialize per-provider rows")
	}
	if rec := do(t, srv, http.MethodGet, "/certify/summary?alpha=bogus", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad alpha status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/certify/summary", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodGet, "/policy", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `policy "v1"`) {
		t.Fatalf("GET /policy = %d %s", rec.Code, rec.Body)
	}
	// PUT a widened policy (DSL).
	newPolicy := `policy "v2" {
	  attr provider { tuple purpose=care visibility=house granularity=specific retention=year }
	  attr weight { tuple purpose=care visibility=third-party granularity=specific retention=year }
	}`
	rec = do(t, srv, http.MethodPut, "/policy", newPolicy)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT /policy = %d %s", rec.Code, rec.Body)
	}
	var change ppdb.PolicyChange
	if err := json.Unmarshal(rec.Body.Bytes(), &change); err != nil {
		t.Fatal(err)
	}
	if change.From != "v1" || change.To != "v2" || change.DeltaPW <= 0 {
		t.Errorf("change = %+v", change)
	}
	// Errors.
	if rec := do(t, srv, http.MethodPut, "/policy", "junk"); rec.Code != http.StatusBadRequest {
		t.Errorf("junk policy status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPut, "/policy", `provider "x" threshold 5 { }`); rec.Code != http.StatusBadRequest {
		t.Errorf("policyless PUT status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodDelete, "/policy", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /policy status = %d", rec.Code)
	}
}

// TestPolicyPutKeepsSigma is a regression test: PUT /v1/policy used to
// accept a document whose sensitivity lines changed Σ, answer 200 and keep
// assessing under the boot Σ. A Σ that differs from the live one is now
// refused, naming the attribute; GET /v1/policy renders the live Σ, so
// its body PUTs back; and a document without sensitivity lines keeps it.
func TestPolicyPutKeepsSigma(t *testing.T) {
	db := clinicDB(t)
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	certify := func() *ppdb.Certification {
		t.Helper()
		cert, err := db.Certify(0.1)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	before := certify()
	pol := db.Policy()
	render := func(sens privacy.AttributeSensitivities) string {
		return policydsl.Render(&policydsl.Document{Policy: pol, AttrSens: sens, Scales: privacy.DefaultScales()})
	}
	for _, tc := range []struct {
		name string
		sens privacy.AttributeSensitivities
		want string
	}{
		{"changed weight", privacy.AttributeSensitivities{"condition": 5, "weight": 400},
			"policy document sets sensitivity weight 400 but the live Σ^weight is 4"},
		{"missing weight", privacy.AttributeSensitivities{"condition": 5},
			"policy document omits sensitivity weight (counts as 1) but the live Σ^weight is 4"},
		{"extra attribute", privacy.AttributeSensitivities{"condition": 5, "weight": 4, "age": 2},
			"policy document sets sensitivity age 2 but the live Σ^age is 1"},
	} {
		rec := do(t, srv, http.MethodPut, "/v1/policy", render(tc.sens))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: PUT = %d %s; want 400 saying %q", tc.name, rec.Code, rec.Body, tc.want)
		}
	}
	if swaps, after := len(db.PolicyLog()), certify(); swaps != 0 || after.Report.TotalViolations != before.Report.TotalViolations {
		t.Fatalf("a refused PUT moved the store: %d swaps logged, violations %g → %g",
			swaps, before.Report.TotalViolations, after.Report.TotalViolations)
	}

	rec := do(t, srv, http.MethodGet, "/v1/policy", "")
	for _, line := range []string{"sensitivity condition 5", "sensitivity weight 4"} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Fatalf("GET /v1/policy lacks %q:\n%s", line, rec.Body)
		}
	}
	for name, body := range map[string]string{"GET body": rec.Body.String(), "no sensitivity lines": render(nil)} {
		if rec := do(t, srv, http.MethodPut, "/v1/policy", body); rec.Code != http.StatusOK {
			t.Fatalf("%s: PUT = %d %s", name, rec.Code, rec.Body)
		}
		if after := certify(); after.Report.TotalViolations != before.Report.TotalViolations {
			t.Fatalf("%s: the same policy under the live Σ moved violations %g → %g",
				name, before.Report.TotalViolations, after.Report.TotalViolations)
		}
	}
}

func TestProvidersEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodGet, "/providers", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "maria") {
		t.Fatalf("GET /providers = %d %s", rec.Code, rec.Body)
	}
	dsl := `provider "omar" threshold 15 {
	  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
	}`
	rec = do(t, srv, http.MethodPost, "/providers", dsl)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"registered": 1`) {
		t.Fatalf("POST /providers = %d %s", rec.Code, rec.Body)
	}
	rec = do(t, srv, http.MethodGet, "/providers", "")
	if !strings.Contains(rec.Body.String(), "omar") {
		t.Errorf("omar missing: %s", rec.Body)
	}
	if rec := do(t, srv, http.MethodPost, "/providers", `policy "p" { }`); rec.Code != http.StatusBadRequest {
		t.Errorf("providerless POST status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/providers", "junk"); rec.Code != http.StatusBadRequest {
		t.Errorf("junk POST status = %d", rec.Code)
	}
}

func TestAuditAndSweepEndpoints(t *testing.T) {
	srv := testServer(t)
	// Generate one denied access for the log.
	do(t, srv, http.MethodPost, "/query",
		`{"purpose":"marketing","visibility":2,"sql":"SELECT weight FROM t"}`)
	rec := do(t, srv, http.MethodGet, "/audit", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "marketing") {
		t.Fatalf("GET /audit = %d %s", rec.Code, rec.Body)
	}
	rec = do(t, srv, http.MethodPost, "/sweep", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /sweep = %d %s", rec.Code, rec.Body)
	}
	var sweep ppdb.SweepReport
	if err := json.Unmarshal(rec.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.CellsExpired != 0 || sweep.RowsDeleted != 0 {
		t.Errorf("fresh sweep = %+v", sweep)
	}
	if rec := do(t, srv, http.MethodPost, "/audit", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /audit status = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/sweep", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep status = %d", rec.Code)
	}
}

func TestLoadEndpoint(t *testing.T) {
	srv := testServer(t)
	// Register the provider named in the CSV first.
	dsl := `provider "omar" threshold 15 {
	  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
	}`
	if rec := do(t, srv, http.MethodPost, "/providers", dsl); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	csvBody := "provider,weight\nomar,92.5\n"
	rec := do(t, srv, http.MethodPost, "/load?table=t", csvBody)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"loaded": 1`) {
		t.Fatalf("load = %d %s", rec.Code, rec.Body)
	}
	// Unknown provider in the CSV fails.
	rec = do(t, srv, http.MethodPost, "/load?table=t", "provider,weight\nstranger,1\n")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown provider load = %d %s", rec.Code, rec.Body)
	}
	// Missing table param.
	if rec := do(t, srv, http.MethodPost, "/load", csvBody); rec.Code != http.StatusBadRequest {
		t.Errorf("missing table = %d", rec.Code)
	}
	// Unregistered table.
	if rec := do(t, srv, http.MethodPost, "/load?table=nope", csvBody); rec.Code != http.StatusBadRequest {
		t.Errorf("bad table = %d", rec.Code)
	}
	// Wrong method.
	if rec := do(t, srv, http.MethodGet, "/load?table=t", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /load = %d", rec.Code)
	}
}

func TestSelfServiceEndpoints(t *testing.T) {
	srv := testServer(t)
	rec := do(t, srv, http.MethodGet, "/self/audit?provider=maria", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"Provider": "maria"`) {
		t.Fatalf("self audit = %d %s", rec.Code, rec.Body)
	}
	rec = do(t, srv, http.MethodGet, "/self/data?provider=maria", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "61.5") {
		t.Fatalf("self data = %d %s", rec.Code, rec.Body)
	}
	// Unknown provider → 404; missing param → 400; wrong method → 405.
	if rec := do(t, srv, http.MethodGet, "/self/audit?provider=zoe", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown provider audit = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/self/data", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("missing provider = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/self/audit?provider=maria", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST self audit = %d", rec.Code)
	}
}

// --- lifecycle hardening ---

func TestHealthEndpoints(t *testing.T) {
	srv := testServer(t)
	if rec := do(t, srv, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz = %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, srv, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"ready"`) {
		t.Errorf("readyz = %d %s", rec.Code, rec.Body)
	}
	srv.SetReady(false)
	if rec := do(t, srv, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), `"draining"`) {
		t.Errorf("draining readyz = %d %s", rec.Code, rec.Body)
	}
	srv.SetReady(true)
	if rec := do(t, srv, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Errorf("re-readied readyz = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d", rec.Code)
	}
}

// TestPanicRecovery is the acceptance criterion: a handler panic (injected
// via internal/fault) yields a JSON 500 and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	defer fault.Reset()
	var logged strings.Builder
	db := testServer(t).db
	srv, err := NewWith(db, Options{Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	fault.ArmPanic("httpapi.handler")
	rec := do(t, srv, http.MethodGet, "/certify?alpha=0.5", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d %s", rec.Code, rec.Body)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
		body.Error.Code != "internal" || body.Error.Message == "" {
		t.Errorf("panic response is not the JSON error envelope: %s", rec.Body)
	}
	if !strings.Contains(logged.String(), "httpapi.handler") || !strings.Contains(logged.String(), "goroutine") {
		t.Errorf("panic log missing site or stack: %q", logged.String())
	}
	// The server keeps serving once the fault is disarmed.
	fault.Reset()
	if rec := do(t, srv, http.MethodGet, "/certify?alpha=0.5", ""); rec.Code != http.StatusOK {
		t.Errorf("after panic, certify = %d %s", rec.Code, rec.Body)
	}
}

func TestInjectedHandlerError(t *testing.T) {
	defer fault.Reset()
	srv := testServer(t)
	fault.ArmError("httpapi.handler", nil)
	if rec := do(t, srv, http.MethodGet, "/certify", ""); rec.Code != http.StatusInternalServerError {
		t.Errorf("injected error = %d %s", rec.Code, rec.Body)
	}
	fault.Reset()
	if rec := do(t, srv, http.MethodGet, "/certify", ""); rec.Code != http.StatusOK {
		t.Errorf("after reset = %d", rec.Code)
	}
}

// TestLoadShedding caps in-flight requests at one, parks a request inside
// the handler by withholding half its body, and checks the next request is
// shed with a JSON 503 — while /healthz still answers.
func TestLoadShedding(t *testing.T) {
	db := testServer(t).db
	srv, err := NewWith(db, Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"purpose":"care","visibility":2,"sql":"SELECT weight FROM t"}`
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	// Wait until the parked request holds the only slot. A probe sent
	// before that could take the slot first and get the parked request
	// shed instead.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never reached ServeHTTP")
		}
		time.Sleep(time.Millisecond)
	}
	// The parked request occupies the only slot; a second request must be
	// shed.
	shed := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/certify?alpha=0.5")
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(payload), "capacity") || resp.Header.Get("Retry-After") == "" {
				t.Errorf("shed response missing envelope or Retry-After: %s", payload)
			}
			shed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !shed {
		t.Fatal("server never shed load with the only slot occupied")
	}
	// Probes bypass the cap.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under load = %d", resp.StatusCode)
	}
	// Release the parked request; the slot frees and service resumes.
	if _, err := io.WriteString(conn, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/certify?alpha=0.5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the parked request completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAlphaValidation rejects NaN, ±Inf and out-of-range α with a 400 on
// both certification endpoints.
func TestAlphaValidation(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/certify", "/certify/summary"} {
		for _, alpha := range []string{"NaN", "nan", "+Inf", "-Inf", "Infinity", "-0.1", "1.5", "1e300"} {
			rec := do(t, srv, http.MethodGet, path+"?alpha="+alpha, "")
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s?alpha=%s = %d, want 400 (%s)", path, alpha, rec.Code, rec.Body)
			}
		}
		// The boundary values are legal.
		for _, alpha := range []string{"0", "1", "0.25"} {
			rec := do(t, srv, http.MethodGet, path+"?alpha="+alpha, "")
			if rec.Code != http.StatusOK {
				t.Errorf("%s?alpha=%s = %d, want 200 (%s)", path, alpha, rec.Code, rec.Body)
			}
		}
	}
}

// TestOversizeBodies413 checks that tripping http.MaxBytesReader yields a
// clean JSON 413 naming the limit, on every body-accepting endpoint.
func TestOversizeBodies413(t *testing.T) {
	srv := testServer(t)
	check := func(method, path, body string) {
		t.Helper()
		rec := do(t, srv, method, path, body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s = %d, want 413 (%.120s)", method, path, rec.Code, rec.Body)
		}
		var envelope errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil ||
			envelope.Error.Code != "payload_too_large" ||
			!strings.Contains(envelope.Error.Detail, "limit is") {
			t.Errorf("%s %s 413 body not the JSON envelope: %s", method, path, rec.Body)
		}
	}
	over1M := strings.Repeat("x", 1<<20+1)
	check(http.MethodPut, "/policy", over1M)
	check(http.MethodPost, "/providers", over1M)
	check(http.MethodPost, "/load?table=t", "provider,weight\n"+strings.Repeat("x", 8<<20))
}

// TestProvidersListKeepsInvalidBytes: providers whose names differ only in
// a byte that is not UTF-8 are listed as two keys.
func TestProvidersListKeepsInvalidBytes(t *testing.T) {
	srv := testServer(t)
	for _, body := range []string{"provider \"bo\xffb\" threshold 1 {}\n", "provider \"bo\xfeb\" threshold 7 {}\n"} {
		if rec := do(t, srv, http.MethodPost, "/v1/providers", body); rec.Code != http.StatusOK {
			t.Fatalf("POST %q: %d %s", body, rec.Code, rec.Body)
		}
	}
	rec := do(t, srv, http.MethodGet, "/v1/providers?prefix=bo", "")
	var page ProvidersPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 || page.Count != 2 {
		t.Errorf("GET /v1/providers?prefix=bo lists %d of %d: %q; want two keys", page.Count, page.Total, page.Providers)
	}
}
