package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// enforcedServer extends the shared fixture with a provider whose weight
// preference caps visibility below the policy grant, so enforced queries
// have something to suppress.
func enforcedServer(t *testing.T) *Server {
	t.Helper()
	srv := testServer(t)
	p := privacy.NewPrefs("nora", 50)
	p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 1, Granularity: 3, Retention: 4})
	if err := srv.db.RegisterProvider(p); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.db.Insert("t", "nora", relational.Row{
		relational.Text("nora"), relational.Float(72.5),
	}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// operatorToken is the privilege the explain/index-stats tests present.
const operatorToken = "op-secret"

// operatorServer rebuilds the handler over the same store with the
// operator privilege configured.
func operatorServer(t *testing.T, srv *Server) *Server {
	t.Helper()
	op, err := NewWith(srv.db, Options{OperatorToken: operatorToken})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// doOp is do with the operator token attached.
func doOp(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Operator-Token", operatorToken)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestQueryEnforcedSuppression checks that POST /v1/query withholds rows
// whose providers would be violated and reports the work in stats.
func TestQueryEnforcedSuppression(t *testing.T) {
	srv := enforcedServer(t)
	rec := do(t, srv, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT provider, weight FROM t"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "maria" {
		t.Fatalf("rows = %v, want only maria (nora suppressed)", out.Rows)
	}
	if out.Stats.RowsScanned == nil || out.Stats.RowsSuppressed == nil {
		t.Fatalf("full-scan stats must carry the counts: %+v", out.Stats)
	}
	if *out.Stats.RowsScanned != 2 || *out.Stats.RowsSuppressed != 1 || out.Stats.RowsReturned != 1 {
		t.Fatalf("stats = %+v", out.Stats)
	}
	if out.Explain != nil {
		t.Fatal("explain returned without being requested")
	}
}

// TestQueryEnforcedExplain checks the explain flag under the operator
// privilege: the response carries the trace, and the suppression names the
// violating (pref, policy) pair.
func TestQueryEnforcedExplain(t *testing.T) {
	srv := operatorServer(t, enforcedServer(t))
	rec := doOp(t, srv, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT weight FROM t","explain":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil || len(out.Explain.Entries) != 1 {
		t.Fatalf("explain = %+v, want one suppression entry", out.Explain)
	}
	e := out.Explain.Entries[0]
	if e.Provider != "nora" || string(e.Action) != "suppress" || e.Dimension != "visibility" {
		t.Fatalf("trace = %+v", e)
	}
	if e.Pref == nil || e.Pref.Visibility != 1 || e.Policy == nil || e.Policy.Visibility != 2 {
		t.Fatalf("trace must name the (pref, policy) pair: %+v", e)
	}
}

// TestQueryExplainRequiresOperator pins the privilege gate: the EXPLAIN
// trace names the rows and preferences suppression withheld, so a request
// without the operator token — or against a server with no token
// configured — is refused before the store is touched.
func TestQueryExplainRequiresOperator(t *testing.T) {
	body := `{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT weight FROM t","explain":true}`

	srv := enforcedServer(t)
	// No token configured: even presenting one must not unlock explain.
	for name, rec := range map[string]*httptest.ResponseRecorder{
		"no token":  do(t, srv, http.MethodPost, "/v1/query", body),
		"any token": doOp(t, srv, http.MethodPost, "/v1/query", body),
	} {
		if rec.Code != http.StatusForbidden {
			t.Fatalf("%s: status = %d, want 403: %s", name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "operator privilege") {
			t.Fatalf("%s: body = %s", name, rec.Body)
		}
	}

	// Token configured but absent or wrong on the request.
	op := operatorServer(t, srv)
	rec := do(t, op, http.MethodPost, "/v1/query", body)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("missing token status = %d: %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("X-Operator-Token", "wrong")
	wrong := httptest.NewRecorder()
	op.ServeHTTP(wrong, req)
	if wrong.Code != http.StatusForbidden {
		t.Fatalf("wrong token status = %d: %s", wrong.Code, wrong.Body)
	}

	// The same query without explain stays open to everyone.
	rec = do(t, op, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT weight FROM t"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("unprivileged non-explain query status = %d: %s", rec.Code, rec.Body)
	}
}

// TestQueryIndexScanStatsWithheld pins the stats oracle fix: an equality
// probe on an indexed column makes rowsScanned/rowsSuppressed count raw
// matches of the probed literal, so an unprivileged response omits them;
// the operator still sees the exact counts.
func TestQueryIndexScanStatsWithheld(t *testing.T) {
	srv := enforcedServer(t)
	// provider is the primary key, so `provider = 'nora'` narrows to the
	// index — and referencing weight suppresses nora's row, which is
	// exactly what the raw counts would reveal per probed literal.
	body := `{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT provider, weight FROM t WHERE provider = 'nora'"}`
	rec := do(t, srv, http.MethodPost, "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 {
		t.Fatalf("rows = %v, want none (nora suppressed)", out.Rows)
	}
	if out.Stats.RowsScanned != nil || out.Stats.RowsSuppressed != nil {
		t.Fatalf("index-scan counts leaked to an unprivileged requester: %+v", out.Stats)
	}

	op := operatorServer(t, srv)
	rec = doOp(t, op, http.MethodPost, "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("operator status = %d: %s", rec.Code, rec.Body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.RowsScanned == nil || *out.Stats.RowsScanned != 1 || *out.Stats.RowsSuppressed != 1 {
		t.Fatalf("operator must see exact counts: %+v", out.Stats)
	}
}

// TestQueryVerdictMapping checks the error classification: purpose/class
// refusals are 403, everything else a request can get wrong is a 400.
func TestQueryVerdictMapping(t *testing.T) {
	cases := []struct {
		err     error
		verdict string
		status  int
	}{
		{&query.DeniedError{Attribute: "weight", Reason: "x"}, "denied", http.StatusForbidden},
		{&query.UnenforceableError{Construct: "JOIN", Reason: "x"}, "unenforceable", http.StatusBadRequest},
		{errors.New("parse error"), "invalid", http.StatusBadRequest},
	}
	for _, tc := range cases {
		verdict, status := queryVerdict(tc.err)
		if verdict != tc.verdict || status != tc.status {
			t.Errorf("queryVerdict(%v) = (%s, %d), want (%s, %d)", tc.err, verdict, status, tc.verdict, tc.status)
		}
	}
}

// TestQueryEnforcedErrorMapping checks the error envelope: purpose/class
// refusals map to 403, unenforceable statements to 400.
func TestQueryEnforcedErrorMapping(t *testing.T) {
	srv := enforcedServer(t)

	rec := do(t, srv, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":3,"sql":"SELECT weight FROM t"}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("class refusal status = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "does not admit requester class") {
		t.Fatalf("body = %s", rec.Body)
	}

	rec = do(t, srv, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT COUNT(*) FROM t"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unenforceable status = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "not enforceable per datum") {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestQueryOffScaleClassInvalid checks that a requester class outside the
// visibility scale is a 400 with verdict "invalid" — in the request log and
// in ppdb_query_total — for classes below and above the scale: no class
// check can vouch for a class that is not a level.
func TestQueryOffScaleClassInvalid(t *testing.T) {
	var reqLog strings.Builder
	srv, err := NewWith(enforcedServer(t).db, Options{RequestLog: log.New(&reqLog, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const invalid = `ppdb_query_total{verdict="invalid"}`
	for _, class := range []int{-5, 5, 99} {
		before := scrape(t, ts.URL)[invalid]
		body := fmt.Sprintf(`{"requester":"dr","purpose":"care","visibility":%d,"sql":"SELECT provider, weight FROM t"}`, class)
		rec := do(t, srv, http.MethodPost, "/v1/query", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("class %d: status = %d: %s", class, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "not on the visibility scale") ||
			!strings.Contains(rec.Body.String(), `"bad_request"`) {
			t.Fatalf("class %d: body = %s", class, rec.Body)
		}
		if d := scrape(t, ts.URL)[invalid] - before; d != 1 {
			t.Errorf("class %d: %s moved %g, want 1", class, invalid, d)
		}
		if want := fmt.Sprintf("visibility=%d verdict=invalid", class); !strings.Contains(reqLog.String(), want) {
			t.Errorf("class %d: request log lacks %q:\n%s", class, want, reqLog.String())
		}
	}
}

// TestQueryLimitOverflowKeepsStoreWritable is a regression test: a LIMIT
// near the int maximum once overflowed offset+limit inside the engine,
// which panicked while the store's read lock was held — the recovered 500
// left the lock taken and every later writer blocked forever. The query
// must answer every row past the offset, and a policy swap right after it
// must complete.
func TestQueryLimitOverflowKeepsStoreWritable(t *testing.T) {
	srv := enforcedServer(t)
	rec := do(t, srv, http.MethodPost, "/v1/query",
		`{"requester":"dr","purpose":"care","visibility":2,"sql":"SELECT provider FROM t LIMIT 9223372036854775807 OFFSET 1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "nora" {
		t.Fatalf("rows = %v, want [[nora]] (every row past the offset)", out.Rows)
	}

	done := make(chan int, 1)
	go func() {
		done <- do(t, srv, http.MethodPut, "/v1/policy", `policy "v2" {
		  attr provider { tuple purpose=care visibility=house granularity=specific retention=year }
		  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
		}`).Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("PUT /v1/policy after the query = %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PUT /v1/policy blocked: the query left the store lock held")
	}
}
