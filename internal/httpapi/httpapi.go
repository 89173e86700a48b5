// Package httpapi exposes a PPDB over HTTP with JSON bodies — the service
// face of the α-PPDB prototype. The API is versioned under /v1 (see API.md
// for the full reference):
//
//	POST /v1/query            {requester, purpose, visibility, sql} → {columns, rows}
//	GET  /v1/certify?alpha=0.1                                      → certification
//	GET  /v1/certify/summary?alpha=0.1                              → aggregate-only certification (O(1) from the running aggregate)
//	GET  /v1/policy                                                 → current policy (DSL text)
//	PUT  /v1/policy           DSL document with one policy block    → policy change
//	POST /v1/whatif           {diff, u, t, detail}                  → shadow evaluation of a candidate policy diff
//	GET  /v1/providers?prefix=&offset=&limit=                       → paginated provider keys
//	POST /v1/providers        DSL document with provider blocks     → count registered
//	POST /v1/providers/batch  large DSL document (bulk ingest)      → count registered ("shards" is always 1)
//	GET  /v1/audit?prefix=&offset=&limit=                           → paginated access records
//	POST /v1/sweep                                                  → retention sweep
//	POST /v1/load?table=T     CSV body with a header row            → rows loaded
//	GET  /v1/self/audit?provider=N                                  → personal violation report
//	GET  /v1/self/data?provider=N                                   → the provider's own rows
//	GET  /v1/routes                                                 → machine-readable route listing
//	GET  /v1/healthz                                                → liveness probe
//	GET  /v1/readyz                                                 → readiness probe (503 while draining)
//	GET  /v1/metrics                                                → Prometheus-text exposition (?format=json for JSON)
//
// Every route is declared once in the route table (method, canonical path,
// legacy alias, body cap, cap/metrics bypass, handler); the unversioned
// paths of the pre-/v1 surface are thin aliases onto the same handlers and
// answer identically except for "Deprecation: true" and "Sunset" response
// headers (RFC 9745 / RFC 8594) announcing the documented removal date.
// GET /v1/routes serves the table itself, so clients and API.md are pinned
// to the same source of truth.
//
// Errors share one JSON envelope, {"error":{"code","message","detail"}},
// on every path that can produce one: 400s, 403s, 404s for unknown routes,
// 405s (with an Allow header naming the methods the route table declares),
// 413s from body caps, panic-500s and shed-503s. Policy and preference
// uploads use the policydsl text format (Content-Type is not enforced).
//
// Lifecycle hardening (DESIGN.md §9): every request passes through a
// panic-recovery wrapper (a handler panic is logged with its stack and
// answered with an envelope 500; the server keeps serving) and an
// in-flight cap that sheds excess load with an envelope 503 + Retry-After
// rather than letting a pile-up take the process down. Routes marked
// Bypass in the table — the probes and the metrics scrape, under both
// their /v1 and legacy paths — skip the cap so a saturated server still
// answers its load balancer and its scraper.
//
// Observability (DESIGN.md §10): every capped request is measured — a
// per-route/status-class request counter, an in-flight gauge, a per-route
// latency histogram, and dedicated shed/panic counters — published to the
// metrics registry /v1/metrics serves. Request metrics are labeled with
// the route's canonical /v1 path (legacy aliases share their canonical
// route's series; unknown paths collapse to "other", so a scan of random
// URLs cannot mint unbounded series). Options.RequestLog adds one
// structured key=value line per request.
package httpapi

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/kvlog"
	"repro/internal/metrics"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/whatif"
)

// DefaultMaxInFlight is the in-flight request cap used when Options does
// not set one.
const DefaultMaxInFlight = 1024

// Pagination defaults for the list endpoints (/v1/providers, /v1/audit):
// a request without ?limit= gets DefaultPageLimit rows, and no request
// gets more than MaxPageLimit — the bounded-response guarantee at
// million-provider scale.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// Body caps, declared once here and applied centrally by the route table.
const (
	maxJSONBody  = 1 << 20  // POST /v1/query
	maxDSLBody   = 1 << 20  // PUT /v1/policy, POST /v1/providers
	maxBatchBody = 32 << 20 // POST /v1/providers/batch (bulk ingest)
	maxCSVBody   = 8 << 20  // POST /v1/load
)

// Options tunes the hardening knobs. The zero value is production-ready.
type Options struct {
	// MaxInFlight caps concurrently served requests; excess requests are
	// shed immediately with a JSON 503. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// Logger receives panic reports; nil means log.Default().
	Logger *log.Logger
	// Metrics is the registry the request instrumentation publishes to
	// and GET /v1/metrics serves; nil means metrics.Default (which also
	// carries the ledger/ppdb/fault instrumentation of this process).
	Metrics *metrics.Registry
	// RequestLog, when non-nil, receives one structured key=value line
	// per measured request (probes and /v1/metrics are exempt). nil
	// disables request logging.
	RequestLog *log.Logger
	// OperatorToken grants the operator privilege to requests carrying it
	// in the X-Operator-Token header. The privilege unlocks the parts of
	// POST /v1/query that disclose enforcement internals: the EXPLAIN
	// trace (which names the rows, providers and preference tuples behind
	// every suppression — exactly what suppression hides from requesters)
	// and exact index-scan row counts. Empty means no operator exists:
	// explain requests are refused with 403 and index-scan counts are
	// always withheld. Compared in constant time.
	OperatorToken string
}

// routeDef declares one route: everything the dispatcher needs to know
// about it lives here — method, canonical /v1 path, optional legacy alias,
// request-body cap, whether it bypasses the in-flight cap and
// instrumentation, and the handler.
type routeDef struct {
	Method string
	Path   string // canonical /v1 path; also the metric route label
	Legacy string // unversioned alias ("" = none); answers with Deprecation: true
	// MaxBody caps the request body via http.MaxBytesReader (0 = no body
	// expected, no reader installed). Exceeding it yields an envelope 413.
	MaxBody int64
	// Bypass marks probe/scrape routes that skip the in-flight cap and the
	// request instrumentation — a saturated server still answers its load
	// balancer, and a scrape never perturbs the numbers it reads. The
	// bypass follows the route, so /v1 aliases and legacy paths share it.
	Bypass  bool
	Handler http.HandlerFunc
}

// pathEntry is the dispatch state for one URL path: the routes (by method)
// mounted there, the precomputed Allow header, and whether requests to
// this spelling of the path are deprecated (legacy alias) or bypass the
// cap.
type pathEntry struct {
	route      string // canonical /v1 path, the metric label
	methods    map[string]*routeDef
	allow      string // sorted, comma-separated methods for 405s
	bypass     bool
	deprecated bool
}

// legacySunset is the documented removal date for the unversioned legacy
// aliases, sent as the Sunset header (RFC 8594) on every legacy response
// and published by GET /v1/routes and API.md ("Deprecation policy").
const legacySunset = "Fri, 01 Jan 2027 00:00:00 GMT"

// Server wraps a PPDB with an http.Handler.
type Server struct {
	db       *ppdb.DB
	table    []routeDef // the route table, retained for GET /v1/routes
	paths    map[string]*pathEntry
	logger   *log.Logger
	reqLog   *log.Logger
	opToken  string        // Options.OperatorToken ("" = no operator)
	inflight chan struct{} // semaphore: one slot per in-flight request
	ready    atomic.Bool

	// Request instrumentation (DESIGN.md §10). The counters that carry a
	// status-class label are looked up per request; the per-route
	// histograms and the singletons are resolved once here.
	registry   *metrics.Registry
	inFlight   *metrics.Gauge
	shedTotal  *metrics.Counter
	panicTotal *metrics.Counter
}

// New builds the handler around an existing PPDB with default Options.
func New(db *ppdb.DB) (*Server, error) {
	return NewWith(db, Options{})
}

// NewWith builds the handler with explicit hardening options.
func NewWith(db *ppdb.DB, opts Options) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("httpapi: nil database")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.Default
	}
	s := &Server{
		db:       db,
		logger:   opts.Logger,
		reqLog:   opts.RequestLog,
		opToken:  opts.OperatorToken,
		inflight: make(chan struct{}, opts.MaxInFlight),
		registry: opts.Metrics,
		inFlight: opts.Metrics.Gauge("httpapi_in_flight",
			"requests currently being served (shed and probe requests excluded)"),
		shedTotal: opts.Metrics.Counter("httpapi_shed_total",
			"requests shed with a 503 because the in-flight cap was reached"),
		panicTotal: opts.Metrics.Counter("httpapi_panics_total",
			"handler panics recovered into JSON 500s"),
	}
	s.buildPaths(opts.Metrics.Handler().ServeHTTP)
	s.ready.Store(true)
	return s, nil
}

// routeTable is the single source of truth for the HTTP surface: one entry
// per (method, route). Everything else — dispatch, method enforcement and
// the Allow header, body caps, legacy aliases and their Deprecation
// header, the probe/scrape bypass, metric route labels, API.md — derives
// from this table.
func (s *Server) routeTable(metricsHandler http.HandlerFunc) []routeDef {
	return []routeDef{
		{Method: http.MethodPost, Path: "/v1/query", Legacy: "/query", MaxBody: maxJSONBody, Handler: s.handleQuery},
		{Method: http.MethodGet, Path: "/v1/certify", Legacy: "/certify", Handler: s.handleCertify},
		{Method: http.MethodGet, Path: "/v1/certify/summary", Legacy: "/certify/summary", Handler: s.handleCertifySummary},
		{Method: http.MethodGet, Path: "/v1/policy", Legacy: "/policy", Handler: s.handlePolicyGet},
		{Method: http.MethodPut, Path: "/v1/policy", Legacy: "/policy", MaxBody: maxDSLBody, Handler: s.handlePolicyPut},
		{Method: http.MethodPost, Path: "/v1/whatif", MaxBody: maxJSONBody, Handler: s.handleWhatIf},
		{Method: http.MethodGet, Path: "/v1/providers", Legacy: "/providers", Handler: s.handleProvidersGet},
		{Method: http.MethodPost, Path: "/v1/providers", Legacy: "/providers", MaxBody: maxDSLBody, Handler: s.handleProvidersPost},
		{Method: http.MethodPost, Path: "/v1/providers/batch", MaxBody: maxBatchBody, Handler: s.handleProvidersBatch},
		{Method: http.MethodGet, Path: "/v1/audit", Legacy: "/audit", Handler: s.handleAudit},
		{Method: http.MethodPost, Path: "/v1/sweep", Legacy: "/sweep", Handler: s.handleSweep},
		{Method: http.MethodPost, Path: "/v1/load", Legacy: "/load", MaxBody: maxCSVBody, Handler: s.handleLoad},
		{Method: http.MethodGet, Path: "/v1/self/audit", Legacy: "/self/audit", Handler: s.handleSelfAudit},
		{Method: http.MethodGet, Path: "/v1/self/data", Legacy: "/self/data", Handler: s.handleSelfData},
		{Method: http.MethodGet, Path: "/v1/routes", Handler: s.handleRoutes},
		{Method: http.MethodGet, Path: "/v1/healthz", Legacy: "/healthz", Bypass: true, Handler: s.handleHealthz},
		{Method: http.MethodGet, Path: "/v1/readyz", Legacy: "/readyz", Bypass: true, Handler: s.handleReadyz},
		{Method: http.MethodGet, Path: "/v1/metrics", Legacy: "/metrics", Bypass: true, Handler: metricsHandler},
	}
}

// buildPaths expands the route table into the dispatch map: one pathEntry
// per canonical path and one per legacy alias, sharing routeDefs so the
// two spellings cannot drift apart.
func (s *Server) buildPaths(metricsHandler http.HandlerFunc) {
	table := s.routeTable(metricsHandler)
	s.table = table
	s.paths = make(map[string]*pathEntry)
	entry := func(path, route string, deprecated bool) *pathEntry {
		e, ok := s.paths[path]
		if !ok {
			e = &pathEntry{route: route, methods: make(map[string]*routeDef), deprecated: deprecated}
			s.paths[path] = e
		}
		return e
	}
	for i := range table {
		rd := &table[i]
		e := entry(rd.Path, rd.Path, false)
		e.methods[rd.Method] = rd
		e.bypass = e.bypass || rd.Bypass
		if rd.Legacy != "" {
			le := entry(rd.Legacy, rd.Path, true)
			le.methods[rd.Method] = rd
			le.bypass = le.bypass || rd.Bypass
		}
	}
	for _, e := range s.paths {
		ms := make([]string, 0, len(e.methods))
		for m := range e.methods {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		e.allow = strings.Join(ms, ", ")
	}
}

// SetReady flips the /readyz verdict. The server main drops readiness
// before draining so load balancers stop routing new work here while
// in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// classOf collapses a status code to its class label ("2xx", "5xx", ...).
func classOf(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	default:
		return "other"
	}
}

// statusWriter records the status line and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler: route lookup, probe/scrape bypass,
// request instrumentation, load shedding, panic recovery, then dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	entry := s.paths[r.URL.Path]
	if entry != nil && entry.bypass {
		// Probes and scrapes bypass the cap and the instrumentation —
		// derived from the route table, so /v1 spellings and legacy
		// aliases bypass alike.
		s.serveRoute(w, r, entry)
		return
	}
	route := "other"
	if entry != nil {
		route = entry.route
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.inFlight.Inc()
	defer func() {
		s.inFlight.Dec()
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		s.registry.Counter("httpapi_requests_total",
			"requests served by route and status class",
			"route", route, "class", classOf(status)).Inc()
		s.registry.Histogram("httpapi_request_seconds",
			"request latency by route", metrics.DefBuckets,
			"route", route).Observe(elapsed.Seconds())
		if s.reqLog != nil {
			s.reqLog.Print(kvlog.Line("event", "request", "method", r.Method,
				"path", r.URL.Path, "route", route, "status", status,
				"bytes", sw.bytes, "dur", elapsed))
		}
	}()
	select {
	case s.inflight <- struct{}{}:
	default:
		s.shedTotal.Inc()
		sw.Header().Set("Retry-After", "1")
		writeErr(sw, http.StatusServiceUnavailable, errors.New("server at capacity, retry shortly"))
		return
	}
	defer func() { <-s.inflight }()
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panicTotal.Inc()
			s.logger.Printf("%s\n%s",
				kvlog.Line("event", "panic", "method", r.Method, "path", r.URL.Path, "err", rec),
				debug.Stack())
			// Best effort: if the handler already wrote a status line this
			// changes nothing on the wire, but the process keeps serving.
			writeErr(sw, http.StatusInternalServerError, errors.New("internal server error"))
		}
	}()
	if err := fault.Point("httpapi.handler"); err != nil {
		writeErr(sw, http.StatusInternalServerError, err)
		return
	}
	if entry == nil {
		writeErrDetail(sw, http.StatusNotFound,
			fmt.Errorf("no such route %s", r.URL.Path), "see API.md for the /v1 route list")
		return
	}
	s.serveRoute(sw, r, entry)
}

// serveRoute enforces the route table for one matched path: method check
// (405 + Allow on mismatch), the Deprecation header on legacy aliases, the
// declared body cap, then the handler.
func (s *Server) serveRoute(w http.ResponseWriter, r *http.Request, e *pathEntry) {
	rd, ok := e.methods[r.Method]
	if !ok {
		w.Header().Set("Allow", e.allow)
		writeErrDetail(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s", r.Method, e.route), "allowed: "+e.allow)
		return
	}
	if e.deprecated {
		// Legacy unversioned spelling: same handler, same body, plus the
		// deprecation signal (RFC 9745) pointing clients at /v1 and the
		// Sunset date (RFC 8594) after which the alias disappears. The
		// counter measures how much traffic still needs migrating.
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", legacySunset)
		s.registry.Counter("ppdb_legacy_requests_total",
			"requests served via deprecated unversioned legacy aliases",
			"route", e.route).Inc()
	}
	if rd.MaxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, rd.MaxBody)
	}
	rd.Handler(w, r)
}

// errorInfo is the inner object of the uniform error envelope.
type errorInfo struct {
	// Code is a stable, machine-readable error class derived from the
	// status code (e.g. "bad_request", "method_not_allowed").
	Code string `json:"code"`
	// Message is the human-readable description of this failure.
	Message string `json:"message"`
	// Detail carries optional extra context (allowed methods, body limit).
	Detail string `json:"detail,omitempty"`
}

// errorBody is the uniform error envelope: {"error":{"code","message",
// "detail"}}. Every error-producing path — handler 4xx, unknown-route 404,
// method 405, body-cap 413, shed 503, panic 500 — answers with it.
type errorBody struct {
	Error errorInfo `json:"error"`
}

// codeOf maps a status code to the envelope's stable error code.
func codeOf(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusServiceUnavailable:
		return "at_capacity"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "error"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errflow the status line is already written; an encode failure here means the client hung up
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeErrDetail(w, status, err, "")
}

func writeErrDetail(w http.ResponseWriter, status int, err error, detail string) {
	writeJSON(w, status, errorBody{Error: errorInfo{
		Code:    codeOf(status),
		Message: err.Error(),
		Detail:  detail,
	}})
}

// writeBodyErr maps a request-body read failure to a status: an over-limit
// body (the route's MaxBytesReader tripped) is a 413 naming the limit,
// anything else a 400.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErrDetail(w, http.StatusRequestEntityTooLarge,
			errors.New("request body too large"),
			fmt.Sprintf("limit is %d bytes", tooBig.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// pageParams parses ?offset= and ?limit= for the list endpoints. limit
// defaults to DefaultPageLimit and is capped at MaxPageLimit; offset
// defaults to 0. Negative or non-integer values are rejected.
func pageParams(r *http.Request) (offset, limit int, err error) {
	offset, limit = 0, DefaultPageLimit
	if q := r.URL.Query().Get("offset"); q != "" {
		v, perr := strconv.Atoi(q)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("bad offset %q: must be a non-negative integer", q)
		}
		offset = v
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		v, perr := strconv.Atoi(q)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("bad limit %q: must be a non-negative integer", q)
		}
		limit = v
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	return offset, limit, nil
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while accepting work, 503 once
// the server has begun draining (SetReady(false)).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// QueryRequest is the POST /v1/query body. Explain asks for the per-datum
// enforcement trace alongside the answer; it requires the operator
// privilege (X-Operator-Token), because the trace names the rows,
// providers and preference tuples suppression withheld.
type QueryRequest struct {
	Requester  string `json:"requester"`
	Purpose    string `json:"purpose"`
	Visibility int    `json:"visibility"`
	SQL        string `json:"sql"`
	Explain    bool   `json:"explain"`
}

// QueryStats is the wire form of query.Stats. RowsScanned and
// RowsSuppressed are omitted on index-scan answers served without the
// operator privilege: the index matches raw stored values, so those
// counts would tell a requester how many withheld rows carry the probed
// literal — a per-value oracle on the very data suppression hides. Full
// scans report them always (there they count the whole table,
// independent of the predicate). Exact counts stay in the request log,
// the audit trail and the metrics regardless.
type QueryStats struct {
	RowsScanned      *int `json:"rowsScanned,omitempty"`
	RowsSuppressed   *int `json:"rowsSuppressed,omitempty"`
	RowsMatched      int  `json:"rowsMatched"`
	RowsReturned     int  `json:"rowsReturned"`
	CellsGeneralized int  `json:"cellsGeneralized"`
	CellsExpired     int  `json:"cellsExpired"`
}

// wireStats shapes the enforcement stats for the response, withholding
// the per-literal counts of unprivileged index-scan answers.
func wireStats(st query.Stats, indexScan, operator bool) QueryStats {
	out := QueryStats{
		RowsMatched:      st.RowsMatched,
		RowsReturned:     st.RowsReturned,
		CellsGeneralized: st.CellsGeneralized,
		CellsExpired:     st.CellsExpired,
	}
	if !indexScan || operator {
		scanned, suppressed := st.RowsScanned, st.RowsSuppressed
		out.RowsScanned, out.RowsSuppressed = &scanned, &suppressed
	}
	return out
}

// QueryResponse is the POST /v1/query result: the answer relation, the
// enforcement stats behind it, and (for operators who requested it) the
// EXPLAIN trace attributing every suppression/generalization/expiry to
// its cause.
type QueryResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]string     `json:"rows"`
	Stats   QueryStats     `json:"stats"`
	Explain *query.Explain `json:"explain,omitempty"`
}

// operator reports whether the request carries the configured operator
// token. With no token configured nothing is privileged.
func (s *Server) operator(r *http.Request) bool {
	if s.opToken == "" {
		return false
	}
	got := r.Header.Get("X-Operator-Token")
	return subtle.ConstantTimeCompare([]byte(got), []byte(s.opToken)) == 1
}

// queryVerdict classifies a QueryEnforced error into the access-log
// verdict and HTTP status.
func queryVerdict(err error) (verdict string, status int) {
	var denied *query.DeniedError
	var unenf *query.UnenforceableError
	switch {
	case errors.As(err, &denied):
		return "denied", http.StatusForbidden
	case errors.As(err, &unenf):
		return "unenforceable", http.StatusBadRequest
	}
	return "invalid", http.StatusBadRequest
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	op := s.operator(r)
	if req.Explain && !op {
		// The trace discloses the existence, provenance and preferences of
		// exactly the rows suppression withheld; only operators see it.
		s.logQuery(&req, "denied", nil)
		writeErr(w, http.StatusForbidden,
			errors.New("query: explain requires the operator privilege (X-Operator-Token)"))
		return
	}
	res, err := s.db.QueryEnforced(ppdb.EnforcedQuery{
		Requester:  req.Requester,
		Purpose:    privacy.Purpose(req.Purpose),
		Visibility: privacy.Level(req.Visibility),
		SQL:        req.SQL,
		Explain:    req.Explain,
	})
	if err != nil {
		verdict, status := queryVerdict(err)
		s.logQuery(&req, verdict, nil)
		writeErr(w, status, err)
		return
	}
	out := QueryResponse{
		Columns: res.Columns,
		Rows:    make([][]string, 0, len(res.Rows)),
		Stats:   wireStats(res.Stats, res.IndexScan, op),
		Explain: res.Explain,
	}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.Display()
		}
		out.Rows = append(out.Rows, cells)
	}
	s.logQuery(&req, "allowed", &res.Stats)
	writeJSON(w, http.StatusOK, out)
}

// logQuery emits the structured access line for one enforced query.
func (s *Server) logQuery(req *QueryRequest, verdict string, st *query.Stats) {
	if s.reqLog == nil {
		return
	}
	pairs := []any{"event", "query", "requester", req.Requester,
		"purpose", req.Purpose, "visibility", req.Visibility, "verdict", verdict}
	if st != nil {
		pairs = append(pairs, "rows", st.RowsReturned, "suppressed", st.RowsSuppressed,
			"generalized", st.CellsGeneralized, "expired", st.CellsExpired)
	}
	s.reqLog.Print(kvlog.Line(pairs...))
}

// alphaParam parses ?alpha=, defaulting to 0.1. The parsed value must be a
// finite number in [0, 1]: NaN, ±Inf and out-of-range values are rejected
// here with a 400 rather than reaching certification — a NaN α compares
// false against everything, which would silently fail every verdict.
func alphaParam(r *http.Request) (float64, error) {
	alpha := 0.1
	if q := r.URL.Query().Get("alpha"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil {
			return 0, fmt.Errorf("bad alpha %q", q)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return 0, fmt.Errorf("alpha %q must be a finite number in [0, 1]", q)
		}
		alpha = v
	}
	return alpha, nil
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	alpha, err := alphaParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cert, err := s.db.Certify(alpha)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	//lint:ignore errflow the status line is already written; a failure here means the client hung up
	_ = writeCertification(w, cert)
}

// handleCertifySummary serves GET /v1/certify/summary?alpha=: the aggregate
// certification (N, P(W), P(Default), counts, verdict) without per-provider
// rows, answered from the provider table's running aggregate in O(1).
func (s *Server) handleCertifySummary(w http.ResponseWriter, r *http.Request) {
	alpha, err := alphaParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sum, err := s.db.CertifySummary(alpha)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleWhatIf serves POST /v1/whatif: a candidate policy diff evaluated
// against the live population under a shadow policy version — predicted
// ΔP(W), ΔP(Default), break-even T and the Eq. 28-31 verdict — with zero
// live-state mutation. The request and response types live in
// internal/whatif and are shared verbatim with the cmd/whatif CLI. Detail
// mode (per-segment default counts) requires the operator privilege: the
// counts disclose how many providers hold preferences on each touched
// attribute, population structure the base response does not reveal.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req whatif.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Detail && !s.operator(r) {
		// Refused before any store read, like EXPLAIN on /v1/query.
		writeErr(w, http.StatusForbidden,
			errors.New("whatif: detail mode requires the operator privilege (X-Operator-Token)"))
		return
	}
	resp, err := s.db.WhatIf(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// RouteInfo is one row of the GET /v1/routes listing, derived from the
// route table entry for one (method, canonical path).
type RouteInfo struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	// Legacy is the unversioned alias, if the route has one. Every alias
	// is deprecated (LegacyDeprecated) and scheduled for removal at
	// LegacySunset (RFC 8594); canonical /v1 paths never are.
	Legacy           string `json:"legacy,omitempty"`
	LegacyDeprecated bool   `json:"legacyDeprecated,omitempty"`
	LegacySunset     string `json:"legacySunset,omitempty"`
}

// RoutesResponse is the GET /v1/routes body.
type RoutesResponse struct {
	Routes []RouteInfo `json:"routes"`
	// Sunset echoes the global legacy-alias removal date.
	Sunset string `json:"sunset"`
}

// handleRoutes serves the machine-readable route listing straight from the
// route table, in table order — the same source of truth dispatch uses, so
// the listing cannot drift from behavior. Canonical /v1 routes are never
// deprecated; their legacy aliases are, with the shared Sunset date.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	out := RoutesResponse{Routes: make([]RouteInfo, 0, len(s.table)), Sunset: legacySunset}
	for i := range s.table {
		rd := &s.table[i]
		info := RouteInfo{Method: rd.Method, Path: rd.Path, Legacy: rd.Legacy}
		if rd.Legacy != "" {
			info.LegacyDeprecated = true
			info.LegacySunset = legacySunset
		}
		out.Routes = append(out.Routes, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePolicyGet renders the current policy and the live Σ as DSL text,
// a document PUT /v1/policy accepts back unchanged.
func (s *Server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	doc := &policydsl.Document{Policy: s.db.Policy(), AttrSens: s.db.AttrSens(), Scales: privacy.DefaultScales()}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//lint:ignore errflow response write failures mean the client hung up; there is no recovery mid-body
	_, _ = io.WriteString(w, policydsl.Render(doc))
}

// handlePolicyPut swaps the house policy from a DSL document.
func (s *Server) handlePolicyPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	doc, err := policydsl.Parse(string(body))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if doc.Policy == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("document has no policy block"))
		return
	}
	// A swap keeps the live Σ. A document that states Σ must state the
	// live one, so a changed weight is refused rather than dropped.
	if len(doc.AttrSens) > 0 {
		live := s.db.AttrSens()
		if attr, ok := sigmaDiffers(doc.AttrSens, live); ok {
			stated := fmt.Sprintf("sets sensitivity %s %g", attr, doc.AttrSens.Get(attr))
			if _, set := doc.AttrSens[privacy.CanonAttr(attr)]; !set {
				stated = fmt.Sprintf("omits sensitivity %s (counts as 1)", attr)
			}
			writeErr(w, http.StatusBadRequest, fmt.Errorf(
				"policy document %s but the live Σ^%s is %g; a policy swap cannot change Σ",
				stated, attr, live.Get(attr)))
			return
		}
	}
	change, err := s.db.SetPolicy(doc.Policy)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, change)
}

// sigmaDiffers returns the first attribute, in sorted order over the union
// of both vectors, whose Σ differs between a and b; an attribute absent
// from one counts as 1 there, as in assessment.
func sigmaDiffers(a, b privacy.AttributeSensitivities) (string, bool) {
	attrs := make([]string, 0, len(a)+len(b))
	for attr := range a {
		attrs = append(attrs, attr)
	}
	for attr := range b {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		//lint:ignore floatcmp Σ must match exactly: GET renders each weight with %g, which parses back to the same float
		if a.Get(attr) != b.Get(attr) {
			return attr, true
		}
	}
	return "", false
}

// ProvidersPage is the GET /v1/providers response: one page of canonical
// provider keys in global sorted order, with the total match count so
// clients can page through millions of providers in bounded responses.
type ProvidersPage struct {
	Total     int      `json:"total"`
	Offset    int      `json:"offset"`
	Limit     int      `json:"limit"`
	Count     int      `json:"count"`
	Providers []string `json:"providers"`
}

// handleProvidersGet serves the paginated provider listing:
// ?prefix= filters by canonical-key prefix, ?offset=/?limit= page through
// the sorted matches.
func (s *Server) handleProvidersGet(w http.ResponseWriter, r *http.Request) {
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	total, names := s.db.ProvidersPage(r.URL.Query().Get("prefix"), offset, limit)
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, ProvidersPage{
		Total: total, Offset: offset, Limit: limit, Count: len(names), Providers: names,
	})
}

// handleProvidersPost registers the provider blocks of a DSL document.
func (s *Server) handleProvidersPost(w http.ResponseWriter, r *http.Request) {
	n, err := s.registerFromDSL(w, r)
	if err != nil {
		return // response already written
	}
	writeJSON(w, http.StatusOK, map[string]int{"registered": n})
}

// handleProvidersBatch is the bulk-ingest endpoint: a large DSL document
// (up to the batch body cap) whose provider blocks are validated as one
// atomic batch and assessed across the fan-out. The response keeps its
// "shards" key, always 1, for old clients.
func (s *Server) handleProvidersBatch(w http.ResponseWriter, r *http.Request) {
	n, err := s.registerFromDSL(w, r)
	if err != nil {
		return // response already written
	}
	writeJSON(w, http.StatusOK, map[string]int{"registered": n, "shards": s.db.ShardCount()})
}

// registerFromDSL parses provider blocks from the request body and
// registers them as one atomic batch. On error the
// envelope has been written and a non-nil error is returned.
func (s *Server) registerFromDSL(w http.ResponseWriter, r *http.Request) (int, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyErr(w, err)
		return 0, err
	}
	doc, err := policydsl.Parse(string(body))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return 0, err
	}
	if len(doc.Providers) == 0 {
		err := fmt.Errorf("document has no provider blocks")
		writeErr(w, http.StatusBadRequest, err)
		return 0, err
	}
	// Bulk registration: validates the whole batch before storing any of
	// it, then compiles and assesses the rows across the fan-out.
	if err := s.db.RegisterProviders(doc.Providers); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return 0, err
	}
	return len(doc.Providers), nil
}

// AuditPage is the GET /v1/audit response: one page of access records in
// log order, with the total match count.
type AuditPage struct {
	Total   int                 `json:"total"`
	Offset  int                 `json:"offset"`
	Limit   int                 `json:"limit"`
	Count   int                 `json:"count"`
	Records []ppdb.AccessRecord `json:"records"`
}

// handleAudit serves the paginated access log: ?prefix= filters by
// requester prefix, ?offset=/?limit= page through the matches.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	total, recs := s.db.Audit().Page(r.URL.Query().Get("prefix"), offset, limit)
	if recs == nil {
		recs = []ppdb.AccessRecord{}
	}
	writeJSON(w, http.StatusOK, AuditPage{
		Total: total, Offset: offset, Limit: limit, Count: len(recs), Records: recs,
	})
}

// handleSelfAudit serves GET /v1/self/audit?provider=name: the provider's
// personal violation report (w_i, Violation_i, default_i, conflict pairs).
func (s *Server) handleSelfAudit(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	if provider == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?provider="))
		return
	}
	rep, err := s.db.SelfAudit(provider)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	//lint:ignore errflow the status line is already written; a failure here means the client hung up
	_ = writeProviderReport(w, &rep)
}

// handleSelfData serves GET /v1/self/data?provider=name: every row the
// provider contributed, at full granularity (right of access).
func (s *Server) handleSelfData(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	if provider == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?provider="))
		return
	}
	rows, err := s.db.ProviderView(provider)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type rowJSON struct {
		Table  string            `json:"table"`
		RowID  int64             `json:"rowId"`
		Values map[string]string `json:"values"`
	}
	out := make([]rowJSON, 0, len(rows))
	for _, row := range rows {
		vals := make(map[string]string, len(row.Columns))
		for i, c := range row.Columns {
			vals[c] = row.Values[i].Display()
		}
		out = append(out, rowJSON{Table: row.Table, RowID: int64(row.RowID), Values: vals})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLoad bulk-loads CSV microdata: POST /v1/load?table=records with the
// CSV as the body. Providers named in the provider column must already be
// registered.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?table="))
		return
	}
	n, err := s.db.ImportCSV(table, r.Body)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"loaded": n})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rep, err := s.db.Sweep()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
