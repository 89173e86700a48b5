package query

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// stubOrigin is one row's provenance in the stub source.
type stubOrigin struct {
	provider string
	inserted time.Time
}

// stubSource is an in-memory query.Source: explicit provenance, a fixed
// clock with day-granular retention (a datum granted level l expires once
// older than l days), and a deterministic generalizer (text truncates to
// `granted` runes plus an ellipsis, integers round to a power of ten) so
// enforcement outcomes are exact in assertions and goldens.
type stubSource struct {
	origins  map[relational.RowID]stubOrigin
	prefs    map[string]*privacy.Prefs
	compiled map[string]*core.CompiledPrefs
	hier     map[string]bool // attributes with a generalization hierarchy
	now      time.Time
}

func (s *stubSource) Origin(table string, id relational.RowID) (string, time.Time, bool) {
	o, ok := s.origins[id]
	return o.provider, o.inserted, ok
}

func (s *stubSource) Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool) {
	p, ok := s.prefs[key]
	if !ok {
		return nil, nil, false
	}
	return p, s.compiled[key], true
}

func (s *stubSource) Expired(l privacy.Level, inserted time.Time) bool {
	return s.now.Sub(inserted) > time.Duration(l)*24*time.Hour
}

func (s *stubSource) Generalize(attr string, v relational.Value, granted privacy.Level) relational.Value {
	if granted >= 3 || v.IsNull() {
		return v
	}
	if txt, ok := v.AsText(); ok {
		if granted == 0 {
			return relational.Text("*")
		}
		r := []rune(txt)
		if len(r) > int(granted) {
			r = r[:granted]
		}
		return relational.Text(string(r) + "…")
	}
	if n, ok := v.AsInt(); ok {
		step := int64(1)
		for l := granted; l < 3; l++ {
			step *= 10
		}
		return relational.Int(n / step * step)
	}
	return v
}

func (s *stubSource) HasHierarchy(attr string) bool { return s.hier[attr] }

// fixture is the shared test world: seven rows over five providers with one
// restrictive preference each, plus a NULL-provenance row and an
// unregistered provider.
type fixture struct {
	eng   *Engine
	src   *stubSource
	table *relational.Table
}

// fullPrefs grants everything the fixture policy states, per purpose.
func fullPrefs(name string) *privacy.Prefs {
	p := privacy.NewPrefs(name, 10)
	for _, attr := range []string{"id", "provider", "email", "income", "city"} {
		p.Add(attr, privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 6})
	}
	p.Add("email", privacy.Tuple{Purpose: "marketing", Visibility: 4, Granularity: 4, Retention: 6})
	return p
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "id", Type: relational.TypeInt, PrimaryKey: true},
		{Name: "provider", Type: relational.TypeText},
		{Name: "email", Type: relational.TypeText},
		{Name: "income", Type: relational.TypeInt},
		{Name: "city", Type: relational.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := relational.NewTable("people", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}

	hp := privacy.NewHousePolicy("acme").
		Add("id", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 4, Retention: 6}).
		Add("provider", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 4, Retention: 6}).
		Add("email", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 3, Retention: 4}).
		Add("email", privacy.Tuple{Purpose: "marketing", Visibility: 1, Granularity: 1, Retention: 2}).
		Add("income", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 4}).
		Add("city", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 4, Retention: 6})
	asr, err := core.NewAssessor(hp, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// One restrictive preference per provider, everything else permissive:
	// bob caps email visibility, carol email granularity, dave email
	// retention; frank states no email preference at all, so the Sec. 5
	// implicit zero binds.
	prefs := map[string]*privacy.Prefs{
		"alice": fullPrefs("alice"),
		"bob":   fullPrefs("bob").Add("email", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 4, Retention: 6}),
		"carol": fullPrefs("carol").Add("email", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 1, Retention: 6}),
		"dave":  fullPrefs("dave").Add("email", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 0}),
		"frank": func() *privacy.Prefs {
			p := privacy.NewPrefs("frank", 10)
			for _, attr := range []string{"id", "provider", "income", "city"} {
				p.Add(attr, privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 6})
			}
			return p
		}(),
	}
	// Explicit tuples shadow the permissive base only when more restrictive:
	// the binding folds minima, so adding a second email tuple for the same
	// purpose keeps the stricter level.
	compiled := make(map[string]*core.CompiledPrefs, len(prefs))
	for name, p := range prefs {
		compiled[name] = asr.Compile(p)
	}

	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	fresh := now.Add(-time.Hour)
	src := &stubSource{
		origins:  make(map[relational.RowID]stubOrigin),
		prefs:    prefs,
		compiled: compiled,
		// email and income carry hierarchies (the attributes the fixture
		// actually degrades); city does not, so its index stays usable.
		hier: map[string]bool{"email": true, "income": true},
		now:  now,
	}

	rows := []struct {
		provider string
		email    string
		income   int64
		city     string
		inserted time.Time
	}{
		{"alice", "alice@example.com", 52000, "paris", fresh},
		{"bob", "bob@example.com", 48000, "lyon", fresh},
		{"carol", "carol@example.com", 41235, "paris", fresh},
		{"dave", "dave@example.com", 63000, "nice", fresh},
		{"", "eve@example.com", 10000, "paris", fresh},
		{"ghost", "ghost@example.com", 9000, "lyon", fresh},
		{"frank", "frank@example.com", 30500, "paris", fresh},
	}
	for i, r := range rows {
		prov := relational.Null()
		if r.provider != "" {
			prov = relational.Text(r.provider)
		}
		id, err := table.Insert(relational.Row{
			relational.Int(int64(i + 1)), prov, relational.Text(r.email),
			relational.Int(r.income), relational.Text(r.city),
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.provider != "" {
			src.origins[id] = stubOrigin{provider: r.provider, inserted: r.inserted}
		}
	}

	cat := NewCatalog()
	if err := cat.Bind(table, "provider"); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: New(cat, asr, src), src: src, table: table}
}

// display flattens result rows to strings for compact assertions.
func display(rows [][]relational.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.Display()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEnforcementDimensions drives one query per dimension and checks the
// exact rows, cells and stats that survive.
func TestEnforcementDimensions(t *testing.T) {
	fx := newFixture(t)

	cases := []struct {
		name    string
		req     Request
		cols    []string
		rows    []string
		stats   Stats
		denied  string // substring of the expected *DeniedError, "" = allowed
		actions map[Action]int
	}{
		{
			name: "visibility suppression and provenance",
			req:  Request{Requester: "analyst", Purpose: "service", Visibility: 2, SQL: "SELECT email FROM people", Explain: true},
			cols: []string{"email"},
			// bob (pref V1 < 2), frank (implicit zero) and the two
			// unattributable rows are suppressed; carol generalizes, dave's
			// cell is expired.
			rows: []string{"alice@example.com", "c…", "NULL"},
			stats: Stats{RowsScanned: 7, RowsSuppressed: 4, RowsMatched: 3,
				RowsReturned: 3, CellsGeneralized: 1, CellsExpired: 1},
			actions: map[Action]int{ActionSuppress: 4, ActionGeneralize: 1, ActionExpire: 1},
		},
		{
			name: "granularity degrades through the hierarchy",
			req:  Request{Requester: "analyst", Purpose: "service", Visibility: 2, SQL: "SELECT income FROM people WHERE provider = 'carol'"},
			cols: []string{"income"},
			// Policy grants G2 on income: 41235 rounds to 41230 for everyone;
			// the WHERE keeps only carol.
			rows: []string{"41230"},
			stats: Stats{RowsScanned: 7, RowsSuppressed: 2, RowsMatched: 1,
				RowsReturned: 1, CellsGeneralized: 1},
		},
		{
			name: "retention refusal nulls the cell",
			req:  Request{Requester: "analyst", Purpose: "service", Visibility: 2, SQL: "SELECT provider, email FROM people WHERE provider = 'dave'", Explain: true},
			cols: []string{"provider", "email"},
			// email is referenced, so bob's V1 pref and frank's implicit zero
			// suppress their rows even though WHERE keeps only dave.
			rows: []string{"dave|NULL"},
			stats: Stats{RowsScanned: 7, RowsSuppressed: 4, RowsMatched: 1,
				RowsReturned: 1, CellsExpired: 1},
			actions: map[Action]int{ActionSuppress: 4, ActionExpire: 1},
		},
		{
			name:   "purpose the policy never states",
			req:    Request{Requester: "analyst", Purpose: "research", Visibility: 0, SQL: "SELECT email FROM people"},
			denied: `no policy tuple for purpose "research"`,
		},
		{
			name:   "requester class above the policy ceiling",
			req:    Request{Requester: "admin", Purpose: "service", Visibility: 3, SQL: "SELECT email FROM people"},
			denied: "policy visibility 2 does not admit requester class 3",
		},
		{
			name: "marketing purpose uses its own tuple",
			req:  Request{Requester: "mailer", Purpose: "marketing", Visibility: 1, SQL: "SELECT email FROM people"},
			cols: []string{"email"},
			// Policy G1 on marketing degrades every surviving email; frank's
			// implicit zero suppresses him even at class 1.
			rows: []string{"a…", "b…", "c…", "d…"},
			stats: Stats{RowsScanned: 7, RowsSuppressed: 3, RowsMatched: 4,
				RowsReturned: 4, CellsGeneralized: 4},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := fx.eng.Query(tc.req)
			if tc.denied != "" {
				var denied *DeniedError
				if err == nil {
					t.Fatalf("expected a denial, got rows %v", display(res.Rows))
				}
				if !errorsAs(err, &denied) {
					t.Fatalf("expected *DeniedError, got %T: %v", err, err)
				}
				if !strings.Contains(err.Error(), tc.denied) {
					t.Fatalf("denial %q does not mention %q", err, tc.denied)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !eqStrings(res.Columns, tc.cols) {
				t.Fatalf("columns = %v, want %v", res.Columns, tc.cols)
			}
			if got := display(res.Rows); !eqStrings(got, tc.rows) {
				t.Fatalf("rows = %v, want %v", got, tc.rows)
			}
			if res.Stats != tc.stats {
				t.Fatalf("stats = %+v, want %+v", res.Stats, tc.stats)
			}
			if tc.req.Explain {
				counts := map[Action]int{}
				for _, e := range res.Explain.Entries {
					counts[e.Action]++
				}
				for a, n := range tc.actions {
					if counts[a] != n {
						t.Fatalf("explain %s count = %d, want %d (entries %+v)", a, counts[a], n, res.Explain.Entries)
					}
				}
			} else if res.Explain != nil {
				t.Fatal("explain returned without being requested")
			}
		})
	}
}

// errorsAs avoids importing errors in every assertion above.
func errorsAs(err error, target interface{}) bool {
	switch t := target.(type) {
	case **DeniedError:
		for err != nil {
			if d, ok := err.(*DeniedError); ok {
				*t = d
				return true
			}
			u, ok := err.(interface{ Unwrap() error })
			if !ok {
				return false
			}
			err = u.Unwrap()
		}
	}
	return false
}

// TestTraceAttribution checks that every preference-forced action names the
// violating (pref, policy) pair, and policy-forced ones carry a reason.
func TestTraceAttribution(t *testing.T) {
	fx := newFixture(t)
	res, err := fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider, email, income FROM people", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byProvider := map[string][]Trace{}
	for _, e := range res.Explain.Entries {
		byProvider[e.Provider] = append(byProvider[e.Provider], e)
	}

	// bob: visibility suppression forced by his explicit V1 preference.
	found := false
	for _, e := range byProvider["bob"] {
		if e.Action != ActionSuppress {
			continue
		}
		found = true
		if e.Dimension != "visibility" || e.Granted != 1 {
			t.Fatalf("bob suppression mis-attributed: %+v", e)
		}
		if e.Pref == nil || e.Pref.Visibility != 1 || e.PrefImplicit {
			t.Fatalf("bob suppression must name his explicit pref: %+v", e)
		}
		if e.Policy == nil || e.Policy.Visibility != 2 {
			t.Fatalf("bob suppression must name the policy tuple: %+v", e)
		}
	}
	if !found {
		t.Fatal("no suppression trace for bob")
	}

	// frank: implicit-zero suppression must be flagged as synthesized.
	found = false
	for _, e := range byProvider["frank"] {
		if e.Action == ActionSuppress && e.Attribute == "email" {
			found = true
			if e.Pref == nil || !e.PrefImplicit || e.Pref.Visibility != 0 {
				t.Fatalf("frank suppression must name the implicit zero: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("no implicit-zero trace for frank")
	}

	// carol: email generalization forced by her G1 preference (pair named);
	// her income generalization is policy-only (reason, no pref).
	var sawEmail, sawIncome bool
	for _, e := range byProvider["carol"] {
		switch {
		case e.Action == ActionGeneralize && e.Attribute == "email":
			sawEmail = true
			if e.Pref == nil || e.Pref.Granularity != 1 || e.Policy == nil {
				t.Fatalf("carol email generalization must name the pair: %+v", e)
			}
		case e.Action == ActionGeneralize && e.Attribute == "income":
			sawIncome = true
			if e.Pref != nil || e.Reason == "" {
				t.Fatalf("carol income generalization is policy-forced: %+v", e)
			}
		}
	}
	if !sawEmail || !sawIncome {
		t.Fatalf("missing carol traces (email=%v income=%v): %+v", sawEmail, sawIncome, byProvider["carol"])
	}

	// dave: retention refusal forced by his R0 preference.
	found = false
	for _, e := range byProvider["dave"] {
		if e.Action == ActionExpire {
			found = true
			if e.Pref == nil || e.Pref.Retention != 0 || e.Policy == nil {
				t.Fatalf("dave expiry must name the pair: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("no expiry trace for dave")
	}

	// Unattributable rows carry reasons, never a pair.
	for _, e := range res.Explain.Entries {
		if e.Provider == "" || e.Provider == "ghost" {
			if e.Pref != nil || e.Reason == "" {
				t.Fatalf("provenance suppression must be reason-only: %+v", e)
			}
		}
	}
}

// TestDisclosedViewFiltering pins the no-leak property: WHERE and ORDER BY
// see only the disclosed view, so raw values can neither be filtered nor
// ordered on.
func TestDisclosedViewFiltering(t *testing.T) {
	fx := newFixture(t)

	// carol's raw email would match the predicate, but her disclosed view
	// ("c…") does not — the row must not leak through the filter.
	res, err := fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider FROM people WHERE email = 'carol@example.com'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("raw value leaked through WHERE: %v", display(res.Rows))
	}

	// dave's expired email is NULL in the disclosed view; IS NULL matches it.
	res, err = fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider FROM people WHERE email IS NULL",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := display(res.Rows); !eqStrings(got, []string{"dave"}) {
		t.Fatalf("expired-NULL filter = %v, want [dave]", got)
	}

	// ORDER BY income sorts by the generalized values, ties by row id. Only
	// referenced attributes gate a row: email is not in this query, so bob's
	// restrictive email preference does not suppress him here.
	res, err = fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider FROM people WHERE income > 40000 ORDER BY income DESC LIMIT 2 OFFSET 1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := display(res.Rows); !eqStrings(got, []string{"alice", "bob"}) {
		t.Fatalf("ordered window = %v, want [alice bob]", got)
	}
}

// TestIndexScan checks that an equality on an indexed column narrows the
// scan and that enforcement still applies to the narrowed candidates.
func TestIndexScan(t *testing.T) {
	fx := newFixture(t)
	res, err := fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT email FROM people WHERE city = 'paris'", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Scan != "index(city='paris')" {
		t.Fatalf("scan = %q, want the city index", res.Explain.Scan)
	}
	if !res.IndexScan {
		t.Fatal("IndexScan flag not set on an index-narrowed answer")
	}
	if res.Stats.RowsScanned != 4 {
		t.Fatalf("index should narrow the scan to 4 candidates, got %d", res.Stats.RowsScanned)
	}
	if got := display(res.Rows); !eqStrings(got, []string{"alice@example.com", "c…"}) {
		t.Fatalf("rows = %v", got)
	}
}

// TestIndexSkipsNullLiteral pins plan independence for `col = NULL`: SQL
// equality never matches NULL, so the indexed column must take the full
// scan like any other column instead of probing the index's NULL bucket.
func TestIndexSkipsNullLiteral(t *testing.T) {
	fx := newFixture(t)
	res, err := fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT email FROM people WHERE city = NULL", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Scan != "full" || res.IndexScan {
		t.Fatalf("scan = %q (IndexScan=%v), want a full scan for a NULL literal", res.Explain.Scan, res.IndexScan)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", display(res.Rows))
	}
}

// TestIndexSkipsGeneralizableColumn pins plan independence: an index on a
// column whose attribute generalizes must not be used, because the index
// matches raw values while WHERE sees the disclosed view — carol's email
// discloses as "c…", which a raw-value lookup would never surface.
func TestIndexSkipsGeneralizableColumn(t *testing.T) {
	fx := newFixture(t)
	if err := fx.table.CreateIndex("email"); err != nil {
		t.Fatal(err)
	}
	res, err := fx.eng.Query(Request{
		Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT provider FROM people WHERE email = 'c…'", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Scan != "full" || res.IndexScan {
		t.Fatalf("scan = %q (IndexScan=%v), want a full scan despite the email index", res.Explain.Scan, res.IndexScan)
	}
	// The generalized label matches under the full scan; an index lookup
	// on the raw values would have answered the empty relation.
	if got := display(res.Rows); !eqStrings(got, []string{"carol"}) {
		t.Fatalf("rows = %v, want [carol]", got)
	}
}

// TestPlannerGates exercises every statement shape the planner must refuse.
func TestPlannerGates(t *testing.T) {
	fx := newFixture(t)
	unenforceable := []struct {
		name string
		sql  string
	}{
		{"join", "SELECT p.email FROM people p JOIN people q ON p.id = q.id"},
		{"distinct", "SELECT DISTINCT city FROM people"},
		{"group by", "SELECT city FROM people GROUP BY city"},
		{"having without group by", "SELECT city FROM people HAVING COUNT(*) > 1"},
		{"aggregate projection", "SELECT COUNT(*) FROM people"},
		{"expression projection", "SELECT income + 1 FROM people"},
		{"subquery predicate", "SELECT email FROM people WHERE city IN (SELECT city FROM people)"},
		{"aggregate predicate", "SELECT email FROM people WHERE income > SUM(income)"},
	}
	for _, tc := range unenforceable {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 0, SQL: tc.sql})
			if err == nil {
				t.Fatal("expected a refusal")
			}
			if _, ok := err.(*UnenforceableError); !ok {
				t.Fatalf("expected *UnenforceableError, got %T: %v", err, err)
			}
		})
	}

	invalid := []struct {
		name string
		sql  string
	}{
		{"unknown table", "SELECT x FROM nowhere"},
		{"unknown column", "SELECT ssn FROM people"},
		{"unknown qualifier", "SELECT other.email FROM people"},
		{"not a select", "DELETE FROM people"},
		{"insert", "INSERT INTO people (id, provider) VALUES (9, 'mallory')"},
		{"update", "UPDATE people SET income = 0 WHERE provider = 'alice'"},
		{"drop table", "DROP TABLE people"},
		{"parse error", "SELEC email people"},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 0, SQL: tc.sql})
			if err == nil {
				t.Fatal("expected an error")
			}
			if _, ok := err.(*UnenforceableError); ok {
				t.Fatalf("plain invalid input misclassified as unenforceable: %v", err)
			}
			if _, ok := err.(*DeniedError); ok {
				t.Fatalf("plain invalid input misclassified as denial: %v", err)
			}
		})
	}

	t.Run("star and aliases resolve", func(t *testing.T) {
		res, err := fx.eng.Query(Request{
			Requester: "a", Purpose: "service", Visibility: 2,
			SQL: "SELECT * FROM people p WHERE p.provider = 'alice'",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"id", "provider", "email", "income", "city"}
		if !eqStrings(res.Columns, want) {
			t.Fatalf("star columns = %v, want %v", res.Columns, want)
		}
		if len(res.Rows) != 1 || res.Rows[0][1].Display() != "alice" {
			t.Fatalf("rows = %v", display(res.Rows))
		}
	})
}

// TestUncompiledProviderPath runs the same query with nil compiled columns
// and checks the reference fallback produces the identical answer.
func TestUncompiledProviderPath(t *testing.T) {
	fx := newFixture(t)
	req := Request{Requester: "analyst", Purpose: "service", Visibility: 2,
		SQL: "SELECT email FROM people", Explain: true}
	want, err := fx.eng.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	for name := range fx.src.compiled {
		fx.src.compiled[name] = nil
	}
	got, err := fx.eng.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !eqStrings(display(got.Rows), display(want.Rows)) {
		t.Fatalf("uncompiled rows differ: %v vs %v", display(got.Rows), display(want.Rows))
	}
	if got.Stats != want.Stats {
		t.Fatalf("uncompiled stats differ: %+v vs %+v", got.Stats, want.Stats)
	}
	if got.Explain.Render() != want.Explain.Render() {
		t.Fatalf("uncompiled trace differs:\n%s\nvs\n%s", got.Explain.Render(), want.Explain.Render())
	}
}
