package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/population"
	"repro/internal/ppdb"
	"repro/internal/privacy"
)

// Op classes: the end-to-end latency groups. query_refused and verify are
// checked and counted but have no latency metric of their own.
const (
	clsQueryPoint   = "query_point"
	clsQueryScan    = "query_scan"
	clsQueryRefused = "query_refused"
	clsLookup       = "lookup"
	clsWrite        = "write"
	clsCertify      = "certify"
	clsWhatIf       = "whatif"
	clsPolicySwap   = "policy_swap"
	clsVerify       = "verify"
)

// Direct-call kinds: the *ppdb.DB method each route reaches.
const (
	callQueryPoint    = "query_point"
	callQueryScan     = "query_scan"
	callQueryRefused  = "query_refused"
	callSelfAudit     = "self_audit"
	callSelfData      = "self_data"
	callSummary       = "summary"
	callRegisterOne   = "register_one"
	callRegisterBatch = "register_batch"
	callImportCSV     = "import_csv"
	callCertify       = "certify"
	callWhatIf        = "whatif"
	callSetPolicy     = "set_policy"
)

// op is one request of a stream: what to send, how to check the reply,
// and the inputs the traced run re-issues as direct calls.
type op struct {
	class, call  string
	method, path string
	body         []byte
	check        func(status int, body []byte) error

	query *ppdb.EnforcedQuery // query ops
	key   string              // lookups: the provider
}

// stream yields one client's requests. Streams are deterministic in the
// seed; only how far a run gets through one depends on speed.
type stream interface{ next() *op }

// world is the state shared by a workload's streams: the dataset and the
// number of providers registered so far.
type world struct {
	ds         *dataset
	registered atomic.Int64 // providers whose registration was sent
}

func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
}

func clientGen(seed int64, client int) *population.Generator {
	g, err := population.NewGenerator(generatorConfig(), uint64(seed)*31+uint64(client)+17)
	if err != nil {
		panic(err) // the config is a constant
	}
	return g
}

// --- request builders and their checks ---

func expectStatus(status, want int) error {
	if status != want {
		return fmt.Errorf("status %d, want %d", status, want)
	}
	return nil
}

func pointQuery(w *world, i int) *op {
	key := w.ds.keys[i]
	q := &ppdb.EnforcedQuery{Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider, weight, income FROM records WHERE provider = '" + key + "'"}
	return &op{class: clsQueryPoint, call: callQueryPoint, method: http.MethodPost, path: "/v1/query",
		body: queryBody(q), query: q, key: key,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			return checkPoint(w.ds, i, body)
		}}
}

// scanQuery is a full scan with a WHERE range over a table of rows rows.
func scanQuery(rng *rand.Rand, rows int) *op {
	lo := 40 + rng.Intn(90)
	q := &ppdb.EnforcedQuery{Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: fmt.Sprintf("SELECT provider, weight FROM records WHERE weight >= %d AND weight < %d", lo, lo+10)}
	return &op{class: clsQueryScan, call: callQueryScan, method: http.MethodPost, path: "/v1/query",
		body: queryBody(q), query: q,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r queryReply
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Stats.RowsScanned == nil || *r.Stats.RowsScanned != rows {
				return fmt.Errorf("scan: rowsScanned %v, want %d", r.Stats.RowsScanned, rows)
			}
			if r.Stats.RowsReturned != len(r.Rows) || len(r.Rows) > r.Stats.RowsMatched {
				return fmt.Errorf("scan: %d rows, stats %+v", len(r.Rows), r.Stats)
			}
			return nil
		}}
}

func refusedQuery(w *world, i int) *op {
	q := &ppdb.EnforcedQuery{Requester: "analyst", Purpose: "marketing", Visibility: 2,
		SQL: "SELECT weight FROM records WHERE provider = '" + w.ds.keys[i] + "'"}
	return &op{class: clsQueryRefused, call: callQueryRefused, method: http.MethodPost, path: "/v1/query",
		body: queryBody(q), query: q,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusForbidden); err != nil {
				return err
			}
			var e struct {
				Error struct{ Code string } `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				return err
			}
			if e.Error.Code != "forbidden" {
				return fmt.Errorf("refused query: code %q", e.Error.Code)
			}
			return nil
		}}
}

func queryBody(q *ppdb.EnforcedQuery) []byte {
	//lint:ignore errflow[a map of strings and ints always encodes]
	b, _ := json.Marshal(map[string]any{"requester": q.Requester, "purpose": q.Purpose,
		"visibility": q.Visibility, "sql": q.SQL})
	return b
}

type queryReply struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Stats   struct {
		RowsScanned      *int `json:"rowsScanned"`
		RowsSuppressed   *int `json:"rowsSuppressed"`
		RowsMatched      int  `json:"rowsMatched"`
		RowsReturned     int  `json:"rowsReturned"`
		CellsGeneralized int  `json:"cellsGeneralized"`
	} `json:"stats"`
}

// checkPoint is the disclosure oracle for a point query under the
// service-purpose grants of policies A and B: provider and weight are
// granted in full, income partially. The row is returned exactly when
// every referenced attribute's preference admits the house class and the
// provider key itself is disclosed in full (WHERE runs over the disclosed
// view); a cell is shown raw only when preference and grant both allow it.
func checkPoint(ds *dataset, i int, body []byte) error {
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	p := ds.prefs[i]
	vp, gp := prefFor(p, "provider")
	vw, gw := prefFor(p, "weight")
	vi, _ := prefFor(p, "income")
	visible := vp >= 2 && vw >= 2 && vi >= 2 && gp >= 3
	switch {
	case !visible && len(r.Rows) == 0:
		return nil
	case !visible || len(r.Rows) != 1:
		return fmt.Errorf("point %s: %d rows, want visible=%v", ds.keys[i], len(r.Rows), visible)
	}
	raw := displayRow(ds.keys[i], ds.rows[i])
	row := r.Rows[0]
	if len(row) != 3 || row[0] != ds.keys[i] {
		return fmt.Errorf("point %s: row %q", ds.keys[i], row)
	}
	if (row[1] == raw["weight"]) != (gw >= 3) {
		return fmt.Errorf("point %s: weight cell %q with granularity pref %d", ds.keys[i], row[1], gw)
	}
	if row[2] == raw["income"] {
		return fmt.Errorf("point %s: income disclosed past the partial grant", ds.keys[i])
	}
	return nil
}

// prefFor is the provider's (visibility, granularity) preference for the
// service purpose, with the implicit-zero rule for unstated purposes.
func prefFor(p *privacy.Prefs, attr string) (privacy.Level, privacy.Level) {
	for _, e := range p.ForAttribute(attr) {
		if e.Tuple.Purpose == "service" {
			return e.Tuple.Visibility, e.Tuple.Granularity
		}
	}
	return 0, 0
}

// selfAudit checks GET /v1/self/audit against the threshold last written.
func selfAudit(key string, threshold float64) *op {
	return &op{class: clsLookup, call: callSelfAudit, method: http.MethodGet,
		path: "/v1/self/audit?provider=" + url.QueryEscape(key), key: key,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r struct {
				Provider  string
				Threshold float64
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			//lint:ignore floatcmp[the threshold must survive the DSL and JSON encodings bit for bit]
			if r.Provider != key || r.Threshold != threshold {
				return fmt.Errorf("self/audit %s: got %s threshold %v, want %v", key, r.Provider, r.Threshold, threshold)
			}
			return nil
		}}
}

// selfData checks GET /v1/self/data: the provider's rows compared as a set
// (the server returns them in map order). want nil means no rows.
func selfData(key string, want map[string]string) *op {
	return &op{class: clsLookup, call: callSelfData, method: http.MethodGet,
		path: "/v1/self/data?provider=" + url.QueryEscape(key), key: key,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var rows []struct {
				Table  string            `json:"table"`
				Values map[string]string `json:"values"`
			}
			if err := json.Unmarshal(body, &rows); err != nil {
				return err
			}
			if want == nil {
				if len(rows) != 0 {
					return fmt.Errorf("self/data %s: %d rows, want none", key, len(rows))
				}
				return nil
			}
			if len(rows) != 1 || rows[0].Table != table || !maps.Equal(rows[0].Values, want) {
				return fmt.Errorf("self/data %s: got %v, want %v", key, rows, want)
			}
			return nil
		}}
}

type summaryReply struct {
	N           int
	PW          json.RawMessage
	IsAlphaPPDB bool
}

// summary checks GET /v1/certify/summary: N within [lo, hi].
func summary(lo, hi func() int) *op {
	return &op{class: clsLookup, call: callSummary, method: http.MethodGet,
		path: "/v1/certify/summary?alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64),
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r summaryReply
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.N < lo() || r.N > hi() {
				return fmt.Errorf("summary: N %d outside [%d, %d]", r.N, lo(), hi())
			}
			return nil
		}}
}

// register posts provider blocks through POST /v1/providers.
func register(ps []*privacy.Prefs, onOK func()) *op {
	call := callRegisterOne
	if len(ps) > 1 {
		call = callRegisterBatch
	}
	return &op{class: clsWrite, call: call, method: http.MethodPost, path: "/v1/providers",
		body: []byte(renderProviders(ps...)), key: ps[len(ps)-1].Provider,
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r struct{ Registered int }
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Registered != len(ps) {
				return fmt.Errorf("register: %d registered, want %d", r.Registered, len(ps))
			}
			onOK()
			return nil
		}}
}

// load posts rows through POST /v1/load.
func load(keys []string, rows [][3]float64, onOK func()) *op {
	var b bytes.Buffer
	b.WriteString(csvHeader)
	for i, k := range keys {
		appendCSVRow(&b, k, rows[i])
	}
	return &op{class: clsWrite, call: callImportCSV, method: http.MethodPost, path: "/v1/load?table=" + table,
		body: b.Bytes(), key: keys[len(keys)-1],
		check: func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r struct{ Loaded int }
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Loaded != len(keys) {
				return fmt.Errorf("load: %d loaded, want %d", r.Loaded, len(keys))
			}
			onOK()
			return nil
		}}
}

// --- serve-read ---

// deck deals a stream's request kinds in exact shares: each round of
// len(kinds) requests holds every kind its fixed number of times, in a
// seeded random order. Every run of every seed therefore sends the same
// mix, so the mix adds no noise to a run's throughput.
type deck struct {
	rng   *rand.Rand
	kinds []int
	next  int
}

// newDeck deals kind k counts[k] times per round.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for k, c := range counts {
		for range c {
			d.kinds = append(d.kinds, k)
		}
	}
	d.next = len(d.kinds)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.kinds) {
		d.rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
		d.next = 0
	}
	d.next++
	return d.kinds[d.next-1]
}

// Lookup routes, in the order baseLookup and churnStream.lookup take them.
const (
	lookupAudit = iota
	lookupData
	lookupSummary
)

// readStream is one serve-read client: 70% point queries, 5% scans, 5%
// refused-purpose queries, 20% lookups split evenly over the three routes,
// keys Zipf-distributed.
type readStream struct {
	w    *world
	rng  *rand.Rand
	zipf *rand.Zipf
	deck *deck
}

// Request kinds of a serve-read round of 60.
const (
	readPoint = iota + lookupSummary + 1
	readScan
	readRefused
)

func newReadStream(w *world, seed int64, client int) *readStream {
	rng := clientRNG(seed, client)
	return &readStream{w: w, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(w.ds.keys)-1)),
		deck: newDeck(rng, 4, 4, 4, 42, 3, 3)}
}

func (s *readStream) next() *op {
	n := len(s.w.ds.keys)
	i := int(s.zipf.Uint64())
	switch k := s.deck.draw(); k {
	case readPoint:
		return pointQuery(s.w, i)
	case readScan:
		return scanQuery(s.rng, n)
	case readRefused:
		return refusedQuery(s.w, i)
	default:
		return baseLookup(s.w, k, i)
	}
}

// baseLookup is lookup route r on an unmodified base provider.
func baseLookup(w *world, r, i int) *op {
	n := len(w.ds.keys)
	switch r {
	case lookupAudit:
		return selfAudit(w.ds.keys[i], w.ds.prefs[i].Threshold)
	case lookupData:
		return selfData(w.ds.keys[i], displayRow(w.ds.keys[i], w.ds.rows[i]))
	default:
		return summary(func() int { return n }, func() int { return n })
	}
}

// --- provider-churn ---

// written is what a churn client last wrote for one provider, and which
// of its writes no read has confirmed yet. Each write request is confirmed
// through the provider it names last: a batch is registered atomically.
type written struct {
	threshold float64
	row       map[string]string // nil: the provider has no row
	needAudit bool              // threshold write not yet read back
	needData  bool              // row load not yet read back
}

// churnStream is one provider-churn client: 55% preference updates of its
// own half of the base providers, 10% new registrations, 10% 16-block
// registrations, 5% 4-row loads for providers it registered without rows,
// 20% lookups of the provider it just wrote, split evenly over the three
// routes. Its first request is a 16-block registration, so a load always
// finds row-less providers.
type churnStream struct {
	w       *world
	client  int
	rng     *rand.Rand
	deck    *deck
	gen     *population.Generator
	fresh   int      // new providers named so far
	rowless []string // registered by this client, no row yet
	state   map[string]*written
	last    string
	mine    int // providers this client registered (acknowledged)
	started bool
}

func newChurnStream(w *world, seed int64, client int) *churnStream {
	rng := clientRNG(seed, client)
	return &churnStream{w: w, client: client, rng: rng, deck: newDeck(rng, 4, 4, 4, 33, 6, 6, 3),
		gen: clientGen(seed, client), state: map[string]*written{}}
}

// Request kinds of a provider-churn round of 60.
const (
	churnUpdate = iota + lookupSummary + 1
	churnNew
	churnBatch
	churnLoad
)

func (s *churnStream) newProviders(k int) *op {
	ps := make([]*privacy.Prefs, k)
	for j := range ps {
		ps[j] = s.gen.Provider(fmt.Sprintf("churn-c%d-%06d", s.client, s.fresh)).Prefs
		s.fresh++
	}
	s.w.registered.Add(int64(k))
	return register(ps, func() {
		for _, p := range ps {
			s.state[p.Provider] = &written{threshold: p.Threshold}
			s.rowless = append(s.rowless, p.Provider)
		}
		s.mine += k
		s.last = ps[k-1].Provider
		s.state[s.last].needAudit = true
	})
}

func (s *churnStream) next() *op {
	if !s.started {
		s.started = true
		return s.newProviders(16)
	}
	n := len(s.w.ds.keys)
	switch k := s.deck.draw(); {
	case k == churnUpdate:
		i := s.rng.Intn(n/2)*2 + s.client
		if i >= n {
			i = s.client
		}
		key := s.w.ds.keys[i]
		p := s.gen.Provider(key).Prefs
		return register([]*privacy.Prefs{p}, func() {
			st := s.state[key]
			if st == nil {
				st = &written{row: displayRow(key, s.w.ds.rows[i])}
				s.state[key] = st
			}
			st.threshold, st.needAudit = p.Threshold, true
			s.last = key
		})
	case k == churnNew:
		return s.newProviders(1)
	case k == churnBatch:
		return s.newProviders(16)
	case k == churnLoad && len(s.rowless) >= 4:
		keys := append([]string(nil), s.rowless[:4]...)
		rows := make([][3]float64, len(keys))
		for j := range rows {
			rows[j] = randomRow(s.rng)
		}
		return load(keys, rows, func() {
			s.rowless = s.rowless[4:]
			for j, k := range keys {
				s.state[k].row = displayRow(k, rows[j])
			}
			s.last = keys[len(keys)-1]
			s.state[s.last].needData = true
		})
	case k == churnLoad:
		return s.newProviders(1)
	case s.last == "":
		return s.newProviders(1) // nothing acknowledged to read back yet
	default:
		return s.lookup(s.last, k)
	}
}

// lookup reads back provider key with route r.
func (s *churnStream) lookup(key string, r int) *op {
	n := len(s.w.ds.keys)
	st := s.state[key]
	var o *op
	switch r {
	case lookupAudit:
		o = selfAudit(key, st.threshold)
	case lookupData:
		o = selfData(key, st.row)
	default:
		return summary(func() int { return n + s.mine }, func() int { return n + int(s.w.registered.Load()) })
	}
	check := o.check
	o.check = func(status int, body []byte) error {
		err := check(status, body)
		if err == nil && r == lookupAudit {
			st.needAudit = false
		} else if err == nil {
			st.needData = false
		}
		return err
	}
	return o
}

// pendingChecks are the reads that confirm every write of the window not
// already confirmed by a later lookup: the threshold through self/audit,
// and the row through self/data where one was loaded.
func (s *churnStream) pendingChecks() []*op {
	keys := make([]string, 0, len(s.state))
	for k, st := range s.state {
		if st.needAudit || st.needData {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []*op
	for _, k := range keys {
		if s.state[k].needAudit {
			out = append(out, s.lookup(k, lookupAudit))
		}
		if s.state[k].needData {
			out = append(out, s.lookup(k, lookupData))
		}
	}
	return out
}

// --- audit-policy ---

// auditStream is the closed-loop auditor: edit one provider and read it
// back, certify, read the summary and compare, evaluate the what-if of the
// next swap, then swap policies A ↔ B. Edits touch odd base providers only.
type auditStream struct {
	w    *world
	rng  *rand.Rand
	gen  *population.Generator
	step int
	toB  bool // the next swap installs policy B

	edited    string
	threshold float64
	certN     int
	certPW    string
	certAlpha bool
}

func newAuditStream(w *world, seed int64) *auditStream {
	return &auditStream{w: w, rng: clientRNG(seed, 0), gen: clientGen(seed, 0), toB: true}
}

// auditCycle is the number of requests in one auditor cycle.
const auditCycle = 6

// atBoundary reports whether the auditor is between cycles: a window ends
// only there, so every run measures whole cycles.
func (s *auditStream) atBoundary() bool { return s.step == 0 }

func (s *auditStream) next() *op {
	step := s.step
	s.step = (s.step + 1) % auditCycle
	switch step {
	case 0:
		n := len(s.w.ds.keys)
		i := s.rng.Intn(n/2)*2 + 1
		if i >= n {
			i = 1
		}
		p := s.gen.Provider(s.w.ds.keys[i]).Prefs
		s.edited, s.threshold = p.Provider, p.Threshold
		return register([]*privacy.Prefs{p}, func() {})
	case 1:
		o := selfAudit(s.edited, s.threshold)
		o.class = clsVerify
		return o
	case 2:
		return certifyOp(s.checkCertify)
	case 3:
		o := summary(func() int { return s.certN }, func() int { return s.certN })
		check := o.check
		o.class = clsVerify
		o.check = func(status int, body []byte) error {
			if err := check(status, body); err != nil {
				return err
			}
			var r summaryReply
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if string(r.PW) != s.certPW || r.IsAlphaPPDB != s.certAlpha {
				return fmt.Errorf("summary PW %s alpha %v, certify PW %s alpha %v", r.PW, r.IsAlphaPPDB, s.certPW, s.certAlpha)
			}
			return nil
		}
		return o
	case 4:
		return whatifOp(s.toB, func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r struct {
				Current struct {
					N int `json:"n"`
				} `json:"current"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Current.N != s.certN {
				return fmt.Errorf("whatif: current.n %d, want %d", r.Current.N, s.certN)
			}
			return nil
		})
	default:
		toB := s.toB
		s.toB = !s.toB
		name := policyAName
		if toB {
			name = policyBName
		}
		return swapOp(toB, func(status int, body []byte) error {
			if err := expectStatus(status, http.StatusOK); err != nil {
				return err
			}
			var r struct{ To string }
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.To != name {
				return fmt.Errorf("policy swap: to %q, want %q", r.To, name)
			}
			return nil
		})
	}
}

func certifyOp(check func(int, []byte) error) *op {
	return &op{class: clsCertify, call: callCertify, method: http.MethodGet,
		path: "/v1/certify?alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64), check: check}
}

// whatifOp evaluates the swap to policy B (toB) or back to A.
func whatifOp(toB bool, check func(int, []byte) error) *op {
	return &op{class: clsWhatIf, call: callWhatIf, method: http.MethodPost, path: "/v1/whatif",
		body: whatifBody(toB), check: check}
}

// swapOp installs policy B (toB) or A.
func swapOp(toB bool, check func(int, []byte) error) *op {
	doc := policyA
	if toB {
		doc = policyB
	}
	return &op{class: clsPolicySwap, call: callSetPolicy, method: http.MethodPut, path: "/v1/policy",
		body: []byte(doc), check: check}
}

// checkCertify reads N, P(W) and the verdict out of the certification body
// without decoding its per-provider rows: the indented encoding puts the
// report's fields at four spaces and the verdict at two.
func (s *auditStream) checkCertify(status int, body []byte) error {
	if err := expectStatus(status, http.StatusOK); err != nil {
		return err
	}
	n, ok1 := field(body, "\n    \"N\": ", false)
	pw, ok2 := field(body, "\n    \"PW\": ", false)
	verdict, ok3 := field(body, "\n  \"IsAlphaPPDB\": ", true)
	if !ok1 || !ok2 || !ok3 {
		return errors.New("certify: body lacks N, PW or IsAlphaPPDB")
	}
	var err error
	if s.certN, err = strconv.Atoi(n); err != nil {
		return err
	}
	if s.certN != len(s.w.ds.keys) {
		return fmt.Errorf("certify: N %d, want %d", s.certN, len(s.w.ds.keys))
	}
	s.certPW, s.certAlpha = pw, verdict == "true"
	return nil
}

// field returns the scalar after the first (or, with last, the final)
// occurrence of prefix.
func field(body []byte, prefix string, last bool) (string, bool) {
	var i int
	if last {
		i = bytes.LastIndex(body, []byte(prefix))
	} else {
		i = bytes.Index(body, []byte(prefix))
	}
	if i < 0 {
		return "", false
	}
	rest := body[i+len(prefix):]
	j := bytes.IndexAny(rest, ",\n")
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// lookupStream is the audit-policy open-loop reader: lookups on even base
// providers, which the auditor never edits.
type lookupStream struct {
	w    *world
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newLookupStream(w *world, seed int64) *lookupStream {
	rng := clientRNG(seed, 1)
	return &lookupStream{w: w, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(w.ds.keys)/2-1))}
}

func (s *lookupStream) next() *op {
	return baseLookup(s.w, s.rng.Intn(3), int(s.zipf.Uint64())*2)
}
