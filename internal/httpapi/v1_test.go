package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// --- envelope golden tests ---

// TestErrorEnvelopeGolden pins the exact wire shape of the uniform error
// envelope for every error class the dispatcher itself produces: unknown
// route, method mismatch, body cap, bad pagination, and load shed. These
// are golden byte-for-byte comparisons — a drift in field order, indent or
// code vocabulary is an API break.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   string
	}{
		{
			name: "unknown route 404", method: http.MethodGet, path: "/nope",
			wantStatus: http.StatusNotFound,
			wantBody: `{
  "error": {
    "code": "not_found",
    "message": "no such route /nope",
    "detail": "see API.md for the /v1 route list"
  }
}
`,
		},
		{
			name: "method mismatch 405", method: http.MethodDelete, path: "/v1/policy",
			wantStatus: http.StatusMethodNotAllowed,
			wantBody: `{
  "error": {
    "code": "method_not_allowed",
    "message": "method DELETE not allowed on /v1/policy",
    "detail": "allowed: GET, PUT"
  }
}
`,
		},
		{
			name: "body cap 413", method: http.MethodPost, path: "/v1/query",
			body:       `{"sql":"` + strings.Repeat("x", maxJSONBody) + `"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantBody: `{
  "error": {
    "code": "payload_too_large",
    "message": "request body too large",
    "detail": "limit is 1048576 bytes"
  }
}
`,
		},
		{
			name: "bad pagination 400", method: http.MethodGet, path: "/v1/providers?offset=-1",
			wantStatus: http.StatusBadRequest,
			wantBody: `{
  "error": {
    "code": "bad_request",
    "message": "bad offset \"-1\": must be a non-negative integer"
  }
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, srv, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.wantStatus, rec.Body)
			}
			if got := rec.Body.String(); got != tc.wantBody {
				t.Errorf("envelope drifted:\ngot:  %q\nwant: %q", got, tc.wantBody)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
		})
	}
}

// TestShedEnvelopeGolden fills the only in-flight slot by hand (white-box)
// and pins the shed 503's envelope and Retry-After header.
func TestShedEnvelopeGolden(t *testing.T) {
	db := testServer(t).db
	srv, err := NewWith(db, Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.inflight <- struct{}{} // occupy the single slot
	defer func() { <-srv.inflight }()
	rec := do(t, srv, http.MethodGet, "/v1/certify?alpha=0.5", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	want := `{
  "error": {
    "code": "at_capacity",
    "message": "server at capacity, retry shortly"
  }
}
`
	if got := rec.Body.String(); got != want {
		t.Errorf("shed envelope drifted:\ngot:  %q\nwant: %q", got, want)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q", rec.Header().Get("Retry-After"))
	}
	// The probes bypass the cap even while the server is saturated.
	if rec := do(t, srv, http.MethodGet, "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("saturated /v1/healthz = %d", rec.Code)
	}
}

// --- legacy alias equivalence ---

// TestLegacyAliasEquivalence drives every aliased GET route through both
// spellings and requires byte-identical bodies — the alias is the same
// handler — plus the Deprecation: true header on the legacy path only.
func TestLegacyAliasEquivalence(t *testing.T) {
	srv := testServer(t)
	pairs := []struct{ legacy, canonical string }{
		{"/certify?alpha=0.5", "/v1/certify?alpha=0.5"},
		{"/certify/summary?alpha=0.5", "/v1/certify/summary?alpha=0.5"},
		{"/policy", "/v1/policy"},
		{"/providers", "/v1/providers"},
		{"/audit", "/v1/audit"},
		{"/self/audit?provider=maria", "/v1/self/audit?provider=maria"},
		{"/self/data?provider=maria", "/v1/self/data?provider=maria"},
		{"/healthz", "/v1/healthz"},
		{"/readyz", "/v1/readyz"},
	}
	for _, p := range pairs {
		legacy := do(t, srv, http.MethodGet, p.legacy, "")
		canonical := do(t, srv, http.MethodGet, p.canonical, "")
		if legacy.Code != canonical.Code {
			t.Errorf("%s: status %d vs %d", p.legacy, legacy.Code, canonical.Code)
		}
		if !bytes.Equal(legacy.Body.Bytes(), canonical.Body.Bytes()) {
			t.Errorf("%s: body diverges from %s\nlegacy:    %.200s\ncanonical: %.200s",
				p.legacy, p.canonical, legacy.Body, canonical.Body)
		}
		if got := legacy.Header().Get("Deprecation"); got != "true" {
			t.Errorf("%s: Deprecation header = %q, want \"true\"", p.legacy, got)
		}
		if got := canonical.Header().Get("Deprecation"); got != "" {
			t.Errorf("%s: canonical path must not be deprecated (got %q)", p.canonical, got)
		}
	}
	// Mutating aliases carry the header too.
	rec := do(t, srv, http.MethodPost, "/sweep", "")
	if rec.Code != http.StatusOK || rec.Header().Get("Deprecation") != "true" {
		t.Errorf("POST /sweep = %d, Deprecation = %q", rec.Code, rec.Header().Get("Deprecation"))
	}
	// The batch endpoint is /v1-only by design: no legacy spelling.
	if rec := do(t, srv, http.MethodPost, "/providers/batch", ""); rec.Code != http.StatusNotFound {
		t.Errorf("legacy /providers/batch = %d, want 404", rec.Code)
	}
}

// TestAllowHeader checks the 405 Allow header lists the route table's
// methods, sorted, for both single- and multi-method paths.
func TestAllowHeader(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/v1/policy", "GET, PUT"},
		{http.MethodDelete, "/policy", "GET, PUT"},
		{http.MethodDelete, "/v1/providers", "GET, POST"},
		{http.MethodGet, "/v1/sweep", "POST"},
		{http.MethodGet, "/v1/providers/batch", "POST"},
		{http.MethodPost, "/v1/metrics", "GET"},
	}
	for _, tc := range cases {
		rec := do(t, srv, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestV1BypassRoutes is the regression test for the cap/metrics bypass bug:
// the old dispatcher matched raw legacy path strings, so the /v1 spellings
// of the probes would have been capped and instrumented. The bypass now
// follows the route table.
func TestV1BypassRoutes(t *testing.T) {
	db := testServer(t).db
	srv, err := NewWith(db, Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.inflight <- struct{}{} // saturate: only bypass routes can answer
	defer func() { <-srv.inflight }()
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metrics", "/healthz", "/readyz", "/metrics"} {
		if rec := do(t, srv, http.MethodGet, path, ""); rec.Code != http.StatusOK {
			t.Errorf("saturated GET %s = %d, want 200 (bypass)", path, rec.Code)
		}
	}
	// A non-bypass route is shed, proving the slot really is occupied.
	if rec := do(t, srv, http.MethodGet, "/v1/certify", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated /v1/certify = %d, want 503", rec.Code)
	}
}

// --- pagination ---

// registerMany registers n providers named p00..p(n-1) through the API.
func registerMany(t *testing.T, srv *Server, n int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `provider "p%02d" threshold 15 {
  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
}
`, i)
	}
	rec := do(t, srv, http.MethodPost, "/v1/providers/batch", sb.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("batch register = %d %s", rec.Code, rec.Body)
	}
}

func providersPage(t *testing.T, srv *Server, query string) ProvidersPage {
	t.Helper()
	rec := do(t, srv, http.MethodGet, "/v1/providers"+query, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/providers%s = %d %s", query, rec.Code, rec.Body)
	}
	var page ProvidersPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestProvidersPagination walks the paging boundaries of GET /v1/providers:
// defaults, partial pages, offset past the end, limit 0, the hard limit
// cap, and prefix filtering over the globally sorted key list.
func TestProvidersPagination(t *testing.T) {
	srv := testServer(t) // seeds provider "maria"
	registerMany(t, srv, 10)

	// Default page: all 11, sorted, maria first (m < p).
	page := providersPage(t, srv, "")
	if page.Total != 11 || page.Count != 11 || page.Limit != DefaultPageLimit || page.Offset != 0 {
		t.Fatalf("default page = %+v", page)
	}
	if page.Providers[0] != "maria" || page.Providers[1] != "p00" || page.Providers[10] != "p09" {
		t.Errorf("sort order broken: %v", page.Providers)
	}

	// Partial page.
	page = providersPage(t, srv, "?offset=1&limit=3")
	if page.Total != 11 || page.Count != 3 ||
		page.Providers[0] != "p00" || page.Providers[2] != "p02" {
		t.Errorf("offset=1 limit=3 = %+v", page)
	}

	// Last partial page.
	page = providersPage(t, srv, "?offset=9&limit=5")
	if page.Total != 11 || page.Count != 2 || page.Providers[1] != "p09" {
		t.Errorf("tail page = %+v", page)
	}

	// Offset past the end: empty page, total intact, providers is [] not null.
	rec := do(t, srv, http.MethodGet, "/v1/providers?offset=100", "")
	if !strings.Contains(rec.Body.String(), `"providers": []`) {
		t.Errorf("past-the-end page must serialize an empty array: %s", rec.Body)
	}
	page = providersPage(t, srv, "?offset=100")
	if page.Total != 11 || page.Count != 0 {
		t.Errorf("past-the-end page = %+v", page)
	}

	// limit=0 is a count-only probe.
	page = providersPage(t, srv, "?limit=0")
	if page.Total != 11 || page.Count != 0 || page.Limit != 0 {
		t.Errorf("limit=0 page = %+v", page)
	}

	// Over-limit requests are clamped to MaxPageLimit.
	page = providersPage(t, srv, "?limit=999999")
	if page.Limit != MaxPageLimit || page.Count != 11 {
		t.Errorf("clamped page = %+v", page)
	}

	// Prefix filter narrows total and page alike; keys are canonical
	// (lowercase), and the filter follows canonicalization.
	page = providersPage(t, srv, "?prefix=p0&limit=4")
	if page.Total != 10 || page.Count != 4 || page.Providers[0] != "p00" {
		t.Errorf("prefix page = %+v", page)
	}
	page = providersPage(t, srv, "?prefix=P0&limit=4")
	if page.Total != 10 {
		t.Errorf("prefix filtering must canonicalize case: %+v", page)
	}
	page = providersPage(t, srv, "?prefix=zzz")
	if page.Total != 0 || page.Count != 0 {
		t.Errorf("no-match prefix = %+v", page)
	}

	// Malformed paging params are 400s.
	for _, q := range []string{"?offset=-1", "?limit=-1", "?offset=abc", "?limit=1.5"} {
		if rec := do(t, srv, http.MethodGet, "/v1/providers"+q, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET /v1/providers%s = %d, want 400", q, rec.Code)
		}
	}
}

// TestAuditPagination exercises paging and requester-prefix filtering on
// the access log.
func TestAuditPagination(t *testing.T) {
	srv := testServer(t)
	// Five accesses from two requester families.
	for i := 0; i < 3; i++ {
		do(t, srv, http.MethodPost, "/v1/query",
			fmt.Sprintf(`{"requester":"dr-%d","purpose":"care","visibility":2,"sql":"SELECT weight FROM t"}`, i))
	}
	for i := 0; i < 2; i++ {
		do(t, srv, http.MethodPost, "/v1/query",
			fmt.Sprintf(`{"requester":"ads-%d","purpose":"marketing","visibility":2,"sql":"SELECT weight FROM t"}`, i))
	}
	get := func(query string) AuditPage {
		t.Helper()
		rec := do(t, srv, http.MethodGet, "/v1/audit"+query, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/audit%s = %d %s", query, rec.Code, rec.Body)
		}
		var page AuditPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	page := get("")
	if page.Total != 5 || page.Count != 5 {
		t.Fatalf("full log = %+v", page)
	}
	// Log order: the dr queries came first.
	if page.Records[0].Requester != "dr-0" || page.Records[4].Requester != "ads-1" {
		t.Errorf("log order broken: %v, %v", page.Records[0].Requester, page.Records[4].Requester)
	}

	page = get("?offset=4&limit=10")
	if page.Total != 5 || page.Count != 1 || page.Records[0].Requester != "ads-1" {
		t.Errorf("tail page = %+v", page)
	}
	page = get("?offset=5")
	if page.Total != 5 || page.Count != 0 {
		t.Errorf("past-the-end = %+v", page)
	}
	page = get("?prefix=ads")
	if page.Total != 2 || page.Count != 2 || page.Records[0].Requester != "ads-0" {
		t.Errorf("prefix page = %+v", page)
	}
	if page.Records[0].Allowed {
		t.Error("marketing access should have been denied")
	}
	page = get("?prefix=dr&offset=1&limit=1")
	if page.Total != 3 || page.Count != 1 || page.Records[0].Requester != "dr-1" {
		t.Errorf("prefix+paging = %+v", page)
	}
	if rec := do(t, srv, http.MethodGet, "/v1/audit?limit=x", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", rec.Code)
	}
}

// --- batch ingest ---

// TestProvidersBatch checks the bulk-ingest endpoint: atomic registration,
// the shard-count field, and batch atomicity on a bad block.
func TestProvidersBatch(t *testing.T) {
	srv := testServer(t)
	dsl := `provider "omar" threshold 15 {
  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
}
provider "zoe" threshold 20 {
  attr weight { tuple purpose=care visibility=world granularity=specific retention=indefinite }
}`
	rec := do(t, srv, http.MethodPost, "/v1/providers/batch", dsl)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Registered int `json:"registered"`
		Shards     int `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Registered != 2 || out.Shards != 1 { // "shards" stays for old clients: one table
		t.Errorf("batch response = %+v", out)
	}
	page := providersPage(t, srv, "")
	if page.Total != 3 { // maria + omar + zoe
		t.Errorf("total after batch = %d", page.Total)
	}
	// A providerless document is a 400 and registers nothing.
	if rec := do(t, srv, http.MethodPost, "/v1/providers/batch", `policy "p" { }`); rec.Code != http.StatusBadRequest {
		t.Errorf("providerless batch = %d", rec.Code)
	}
	if got := providersPage(t, srv, "").Total; got != 3 {
		t.Errorf("failed batch must register nothing: total = %d", got)
	}
}
