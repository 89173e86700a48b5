package ppdb

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// enforcedDB builds the per-datum enforcement fixture: a patients table and
// four providers, each restrictive along exactly one dimension of the
// weight attribute under the care purpose.
//
//	policy: patient ⟨care,2,3,4⟩  age ⟨care,2,2,4⟩
//	        weight  ⟨care,2,3,4⟩ ⟨research,3,2,3⟩
//	ann: permissive everywhere        bo:  weight care V1 (visibility)
//	cam: weight care G1 (granularity) dee: weight care R1 (retention)
//
// Rows are inserted at the epoch, then the clock advances 48h so dee's
// transient retention grant (24h) lapses while everyone else's stays live.
func enforcedDB(t *testing.T) (*DB, *generalize.NumericHierarchy) {
	t.Helper()
	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("enforced-v1").
		Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4}).
		Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4}).
		Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4}).
		Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	db, err := New(Config{
		Policy:      hp,
		Hierarchies: map[string]generalize.Hierarchy{"weight": weightH},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("patients", schema, "patient"); err != nil {
		t.Fatal(err)
	}

	permissive := func(name string) *privacy.Prefs {
		p := privacy.NewPrefs(name, 50)
		for _, attr := range []string{"patient", "age", "weight"} {
			p.Add(attr, privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 3, Retention: 5})
		}
		return p
	}
	// Only ann consents to research; the rest fall to the implicit zero.
	ann := permissive("ann").Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 3, Retention: 5})
	bo := permissive("bo").Add("weight", privacy.Tuple{Purpose: "care", Visibility: 1, Granularity: 3, Retention: 5})
	cam := permissive("cam").Add("weight", privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 1, Retention: 5})
	dee := permissive("dee").Add("weight", privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 3, Retention: 1})
	rows := []struct {
		p      *privacy.Prefs
		age    int64
		weight float64
	}{
		{ann, 34, 61.5}, {bo, 51, 92}, {cam, 45, 70.5}, {dee, 28, 55},
	}
	for _, r := range rows {
		if err := db.RegisterProvider(r.p); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("patients", r.p.Provider, relational.Row{
			relational.Text(r.p.Provider), relational.Int(r.age), relational.Float(r.weight),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Advance(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	return db, weightH
}

// TestQueryEnforcedDimensions checks each dimension end to end against the
// real store: visibility suppression, granularity degradation through a
// hierarchy, retention refusal on the live clock, and plan-time denials.
func TestQueryEnforcedDimensions(t *testing.T) {
	db, weightH := enforcedDB(t)

	t.Run("care discloses the enforced view", func(t *testing.T) {
		res, err := db.QueryEnforced(EnforcedQuery{
			Requester: "nurse", Purpose: "care", Visibility: 2,
			SQL: "SELECT patient, age, weight FROM patients", Explain: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := query.Stats{RowsScanned: 4, RowsSuppressed: 1, RowsMatched: 3,
			RowsReturned: 3, CellsGeneralized: 4, CellsExpired: 1}
		if res.Stats != want {
			t.Fatalf("stats = %+v, want %+v", res.Stats, want)
		}
		// Policy grants partial age (G2 of 3): the attribute has no
		// hierarchy, so the cell suppresses to "*" for every provider.
		// cam's G1 weight degrades two hierarchy levels; dee's weight is
		// past the 24h transient window and refused.
		camWeight := weightH.Generalize(relational.Float(70.5), 2).Display()
		wantRows := []string{
			"ann|*|61.5",
			"cam|*|" + camWeight,
			"dee|*|NULL",
		}
		for i, r := range res.Rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.Display()
			}
			if got := strings.Join(cells, "|"); got != wantRows[i] {
				t.Fatalf("row %d = %q, want %q", i, got, wantRows[i])
			}
		}
		// bo's suppression traces to his explicit V1 preference against the
		// care policy tuple.
		var boTrace *query.Trace
		for i := range res.Explain.Entries {
			e := &res.Explain.Entries[i]
			if e.Provider == "bo" && e.Action == query.ActionSuppress {
				boTrace = e
			}
		}
		if boTrace == nil {
			t.Fatal("no suppression trace for bo")
		}
		if boTrace.Pref == nil || boTrace.Pref.Visibility != 1 ||
			boTrace.Policy == nil || boTrace.Policy.Visibility != 2 {
			t.Fatalf("bo trace does not name the (pref, policy) pair: %+v", boTrace)
		}
	})

	t.Run("research binds its own tuple and implicit zeros", func(t *testing.T) {
		res, err := db.QueryEnforced(EnforcedQuery{
			Requester: "lab", Purpose: "research", Visibility: 3,
			SQL: "SELECT weight FROM patients", Explain: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Only ann stated a research preference; bo/cam/dee fall to the
		// implicit zero and are suppressed at any class above none.
		if res.Stats.RowsSuppressed != 3 || res.Stats.RowsReturned != 1 {
			t.Fatalf("stats = %+v", res.Stats)
		}
		annWeight := weightH.Generalize(relational.Float(61.5), 1).Display()
		if got := res.Rows[0][0].Display(); got != annWeight {
			t.Fatalf("research weight = %q, want %q (policy G2 of 3)", got, annWeight)
		}
		implicit := 0
		for _, e := range res.Explain.Entries {
			if e.Action == query.ActionSuppress && e.PrefImplicit {
				implicit++
				if e.Pref == nil || e.Pref.Visibility != 0 {
					t.Fatalf("implicit suppression must carry the zero tuple: %+v", e)
				}
			}
		}
		if implicit != 3 {
			t.Fatalf("implicit-zero suppressions = %d, want 3", implicit)
		}
	})

	t.Run("unstated purpose is denied at plan time", func(t *testing.T) {
		_, err := db.QueryEnforced(EnforcedQuery{
			Requester: "ads", Purpose: "marketing", Visibility: 0,
			SQL: "SELECT weight FROM patients",
		})
		var denied *query.DeniedError
		if !errors.As(err, &denied) {
			t.Fatalf("expected *query.DeniedError, got %v", err)
		}
	})

	t.Run("requester class above policy is denied", func(t *testing.T) {
		_, err := db.QueryEnforced(EnforcedQuery{
			Requester: "world", Purpose: "care", Visibility: 3,
			SQL: "SELECT patient FROM patients",
		})
		var denied *query.DeniedError
		if !errors.As(err, &denied) {
			t.Fatalf("expected *query.DeniedError, got %v", err)
		}
	})

	t.Run("unenforceable constructs are refused", func(t *testing.T) {
		_, err := db.QueryEnforced(EnforcedQuery{
			Requester: "lab", Purpose: "care", Visibility: 2,
			SQL: "SELECT COUNT(*) FROM patients",
		})
		var unenf *query.UnenforceableError
		if !errors.As(err, &unenf) {
			t.Fatalf("expected *query.UnenforceableError, got %v", err)
		}
	})

	t.Run("every attempt is audited", func(t *testing.T) {
		before := db.Audit().Len()
		if _, err := db.QueryEnforced(EnforcedQuery{
			Requester: "nurse", Purpose: "care", Visibility: 2,
			SQL: "SELECT patient FROM patients",
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryEnforced(EnforcedQuery{
			Requester: "ads", Purpose: "marketing", Visibility: 0,
			SQL: "SELECT patient FROM patients",
		}); err == nil {
			t.Fatal("expected a denial")
		}
		recs := db.Audit().Records()
		if len(recs) != before+2 {
			t.Fatalf("audit grew by %d, want 2", len(recs)-before)
		}
		if !recs[len(recs)-2].Allowed || recs[len(recs)-1].Allowed {
			t.Fatalf("audit verdicts wrong: %+v", recs[len(recs)-2:])
		}
	})
}

// TestQueryEnforcedOffScaleClass pins the class gate: a requester class
// outside the visibility scale is refused as invalid before planning,
// counted under verdict="invalid" and audited as refused, instead of
// slipping past the plan and row gates. bo caps weight/care at owner, so
// an on-scale house class still suppresses bo.
func TestQueryEnforcedOffScaleClass(t *testing.T) {
	db, _ := enforcedDB(t)
	res, err := db.QueryEnforced(EnforcedQuery{
		Requester: "nurse", Purpose: "care", Visibility: 2,
		SQL: "SELECT patient, weight FROM patients",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].Display() == "bo" {
			t.Fatalf("house class read bo's row: %v", row)
		}
	}
	max := db.scales.Visibility.Max()
	for _, class := range []privacy.Level{-5, -1, max + 1, 99} {
		invalid, denied := mQueryInvalid.Value(), mQueryDenied.Value()
		audited := db.Audit().Len()
		res, err := db.QueryEnforced(EnforcedQuery{
			Requester: "nurse", Purpose: "care", Visibility: class,
			SQL: "SELECT patient, weight FROM patients",
		})
		if err == nil {
			t.Fatalf("class %d answered %d rows; want a refusal", class, len(res.Rows))
		}
		var qdenied *query.DeniedError
		var unenf *query.UnenforceableError
		if errors.As(err, &qdenied) || errors.As(err, &unenf) {
			t.Fatalf("class %d refused as %T; want an invalid request", class, err)
		}
		if !strings.Contains(err.Error(), "not on the visibility scale") {
			t.Fatalf("class %d: error %q", class, err)
		}
		if got := mQueryInvalid.Value() - invalid; got != 1 {
			t.Errorf("class %d: verdict=invalid moved by %d, want 1", class, got)
		}
		if mQueryDenied.Value() != denied {
			t.Errorf("class %d counted as denied", class)
		}
		recs := db.Audit().Records()
		if len(recs) != audited+1 || recs[len(recs)-1].Allowed {
			t.Fatalf("class %d: audit grew by %d, last allowed=%v; want one refused record",
				class, len(recs)-audited, len(recs) > 0 && recs[len(recs)-1].Allowed)
		}
	}
	if _, err := db.QueryEnforced(EnforcedQuery{
		Requester: "world", Purpose: "care", Visibility: max,
		SQL: "SELECT age FROM patients",
	}); err != nil && strings.Contains(err.Error(), "visibility scale") {
		t.Fatalf("top of the scale refused as off-scale: %v", err)
	}
}

// TestQueryEnforcedProvenance covers rows the store cannot vouch for: a row
// whose provider key was never registered and a row with no provenance
// metadata at all. Neither can be checked against preferences, so both are
// withheld with an explicit reason.
func TestQueryEnforcedProvenance(t *testing.T) {
	db, _ := enforcedDB(t)

	// White-box: bypass Insert's registration check to plant a row
	// attributed to an unregistered provider and an orphan row with no
	// provenance at all.
	db.mu.Lock()
	tab := db.tables["patients"]
	err := tab.add(tab.nextID(), rowSlot{row: relational.Row{
		relational.Text("ghost"), relational.Int(40), relational.Float(80),
	}, provider: "ghost", inserted: db.now})
	if err == nil {
		err = tab.add(tab.nextID(), rowSlot{row: relational.Row{
			relational.Text("orphan"), relational.Int(41), relational.Float(81),
		}})
	}
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryEnforced(EnforcedQuery{
		Requester: "nurse", Purpose: "care", Visibility: 2,
		SQL: "SELECT patient FROM patients", Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// patient is the only referenced attribute, so all four registered
	// providers answer; the two unattributable rows are withheld.
	if res.Stats.RowsReturned != 4 || res.Stats.RowsSuppressed != 2 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	reasons := map[string]bool{}
	for _, e := range res.Explain.Entries {
		if e.Action == query.ActionSuppress {
			if e.Pref != nil {
				t.Fatalf("provenance suppression must not cite a preference: %+v", e)
			}
			reasons[e.Reason] = true
		}
	}
	if !reasons["provider is not registered"] || !reasons["row has no attributable provider"] {
		t.Fatalf("missing provenance reasons: %v", reasons)
	}
}

// retentionDays mirrors the default retention schedule independently of the
// code under test: none, transient, week, month, year, indefinite.
var retentionDays = map[privacy.Level]time.Duration{
	0: 0, 1: 24 * time.Hour, 2: 7 * 24 * time.Hour,
	3: 30 * 24 * time.Hour, 4: 365 * 24 * time.Hour, 5: 1 << 60,
}

// TestQueryEnforcedCellConformance is the acceptance equivalence test: over
// a randomized population, every answered cell must match an independent
// reconstruction of the disclosed view, and re-assessing each answered
// (provider, attribute, purpose) against a one-tuple probe policy at the
// disclosed levels must report no violation. Every preference-attributed
// trace must name a genuine (pref, policy) pair.
func TestQueryEnforcedCellConformance(t *testing.T) {
	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("conf-v1").
		Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4}).
		Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4}).
		Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4}).
		Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	db, err := New(Config{Policy: hp, Hierarchies: map[string]generalize.Hierarchy{"weight": weightH}})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("patients", schema, "patient"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	type stored struct {
		prefs  *privacy.Prefs
		age    int64
		weight float64
	}
	var pop []stored
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("prov%02d", i)
		p := privacy.NewPrefs(name, 50)
		for _, attr := range []string{"patient", "age", "weight"} {
			for _, pr := range []privacy.Purpose{"care", "research"} {
				if rng.Float64() < 0.3 {
					continue // leave (attr, purpose) to the implicit zero
				}
				p.Add(attr, privacy.Tuple{
					Purpose:     pr,
					Visibility:  privacy.Level(rng.Intn(4)),
					Granularity: privacy.Level(rng.Intn(4)),
					Retention:   privacy.Level(rng.Intn(6)),
				})
			}
		}
		row := stored{prefs: p, age: int64(20 + i), weight: 50 + float64(i) + 0.5}
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("patients", name, relational.Row{
			relational.Text(name), relational.Int(row.age), relational.Float(row.weight),
		}); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, row)
	}
	if _, err := db.Advance(40 * time.Hour); err != nil {
		t.Fatal(err)
	}
	dataAge := 40 * time.Hour

	// minima folds the provider's effective preference tuples for (attr,
	// purpose) — explicit plus Sec. 5 implicit zeros — using only exported
	// privacy primitives, independent of the compiled lookup under test.
	minima := func(p *privacy.Prefs, attr string, pr privacy.Purpose) (v, g, r privacy.Level, found bool) {
		for _, pt := range p.EffectiveFor(attr, hp.PurposesFor(attr), nil, true) {
			if pt.Tuple.Purpose.Normalize() != pr {
				continue
			}
			if !found {
				v, g, r, found = pt.Tuple.Visibility, pt.Tuple.Granularity, pt.Tuple.Retention, true
				continue
			}
			if pt.Tuple.Visibility < v {
				v = pt.Tuple.Visibility
			}
			if pt.Tuple.Granularity < g {
				g = pt.Tuple.Granularity
			}
			if pt.Tuple.Retention < r {
				r = pt.Tuple.Retention
			}
		}
		return
	}
	minLevel := func(a, b privacy.Level) privacy.Level {
		if a < b {
			return a
		}
		return b
	}
	generalizeCell := func(attr string, raw relational.Value, granted privacy.Level) relational.Value {
		lv := db.hierarchyLevel(attr, granted)
		if lv == 0 {
			return raw
		}
		return db.hierarchyFor(attr).Generalize(raw, lv)
	}

	type scenario struct {
		purpose privacy.Purpose
		vis     privacy.Level
		attrs   []string
		sql     string
	}
	scenarios := []scenario{
		{"care", 1, []string{"patient", "age", "weight"}, "SELECT patient, age, weight FROM patients"},
		{"care", 2, []string{"patient", "age", "weight"}, "SELECT patient, age, weight FROM patients"},
		{"research", 2, []string{"weight"}, "SELECT weight FROM patients"},
		{"research", 3, []string{"weight"}, "SELECT weight FROM patients"},
	}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("%s/v%d", sc.purpose, sc.vis), func(t *testing.T) {
			res, err := db.QueryEnforced(EnforcedQuery{
				Requester: "probe", Purpose: sc.purpose, Visibility: sc.vis,
				SQL: sc.sql, Explain: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Independent reconstruction of the disclosed relation, in
			// insertion (row id) order.
			type cellProbe struct {
				prefs *privacy.Prefs
				attr  string
				g, r  privacy.Level
			}
			var wantRows []string
			var probes []cellProbe
			for _, s := range pop {
				suppressed := false
				for _, attr := range sc.attrs {
					v, _, _, found := minima(s.prefs, attr, sc.purpose)
					if found && sc.vis > v {
						suppressed = true
					}
				}
				if suppressed {
					continue
				}
				cells := make([]string, 0, len(sc.attrs))
				for _, attr := range sc.attrs {
					pol, ok := hp.Find(attr, sc.purpose)
					if !ok {
						t.Fatalf("policy tuple missing for %s/%s", attr, sc.purpose)
					}
					_, g, r, found := minima(s.prefs, attr, sc.purpose)
					grantedG, grantedR := pol.Granularity, pol.Retention
					if found {
						grantedG = minLevel(grantedG, g)
						grantedR = minLevel(grantedR, r)
					}
					var raw relational.Value
					switch attr {
					case "patient":
						raw = relational.Text(s.prefs.Provider)
					case "age":
						raw = relational.Int(s.age)
					default:
						raw = relational.Float(s.weight)
					}
					if dataAge > retentionDays[grantedR] {
						cells = append(cells, "NULL")
					} else {
						cells = append(cells, generalizeCell(attr, raw, grantedG).Display())
						probes = append(probes, cellProbe{prefs: s.prefs, attr: attr, g: grantedG, r: grantedR})
					}
				}
				wantRows = append(wantRows, strings.Join(cells, "|"))
			}
			if len(res.Rows) != len(wantRows) {
				t.Fatalf("answered %d rows, reconstruction has %d", len(res.Rows), len(wantRows))
			}
			for i, r := range res.Rows {
				cells := make([]string, len(r))
				for j, v := range r {
					cells[j] = v.Display()
				}
				if got := strings.Join(cells, "|"); got != wantRows[i] {
					t.Fatalf("row %d = %q, want %q", i, got, wantRows[i])
				}
			}

			// Probe assessment: disclosing (attr) at the granted levels under
			// this purpose and requester class must violate nothing the
			// provider stated — the Eq. 13/14 machinery itself is the judge.
			for _, pr := range probes {
				probe := privacy.NewHousePolicy("probe").Add(pr.attr, privacy.Tuple{
					Purpose: sc.purpose, Visibility: sc.vis, Granularity: pr.g, Retention: pr.r,
				})
				asr, err := core.NewAssessor(probe, nil, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if rep := asr.AssessProvider(pr.prefs); rep.Violated {
					t.Fatalf("answered cell violates %s on %s: %+v", pr.prefs.Provider, pr.attr, rep.Pairs)
				}
			}

			// Every preference-attributed trace must name a genuine pair:
			// the pref tuple among the provider's effective tuples, strictly
			// below the policy tuple on the traced dimension.
			for _, e := range res.Explain.Entries {
				if e.Pref == nil {
					continue
				}
				if e.Policy == nil {
					t.Fatalf("trace names a pref without its policy tuple: %+v", e)
				}
				var prefs *privacy.Prefs
				for _, s := range pop {
					if s.prefs.Provider == e.Provider {
						prefs = s.prefs
					}
				}
				if prefs == nil {
					t.Fatalf("trace cites unknown provider %q", e.Provider)
				}
				match := false
				for _, pt := range prefs.EffectiveFor(e.Attribute, hp.PurposesFor(e.Attribute), nil, true) {
					if pt.Tuple == *e.Pref {
						match = true
					}
				}
				if !match {
					t.Fatalf("traced pref %s is not among %s's effective tuples", e.Pref, e.Provider)
				}
				var prefLv, polLv privacy.Level
				switch e.Dimension {
				case "visibility":
					prefLv, polLv = e.Pref.Visibility, e.Policy.Visibility
					polLv = minLevel(polLv, sc.vis) // suppression compares against the requester class
					if sc.vis <= prefLv {
						t.Fatalf("visibility trace without an actual violation: %+v", e)
					}
					continue
				case "granularity":
					prefLv, polLv = e.Pref.Granularity, e.Policy.Granularity
				case "retention":
					prefLv, polLv = e.Pref.Retention, e.Policy.Retention
				default:
					t.Fatalf("trace with unknown dimension: %+v", e)
				}
				if prefLv >= polLv {
					t.Fatalf("traced pair is not violating on %s: %+v", e.Dimension, e)
				}
			}
		})
	}
}

// TestShardedEnforcedQueryUnderMutation races enforced queries against
// provider registration, row inserts, preference edits and policy swaps,
// with every population fan-out four ranges wide. Run under -race by the
// CI race sweep.
func TestShardedEnforcedQueryUnderMutation(t *testing.T) {
	mkPolicy := func(v privacy.Level) *privacy.HousePolicy {
		return privacy.NewHousePolicy("race").
			Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 5}).
			Add("weight", privacy.Tuple{Purpose: "care", Visibility: v, Granularity: 3, Retention: 5})
	}
	setProcs(t, 4)
	db, err := New(Config{Policy: mkPolicy(2)})
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

	var wg sync.WaitGroup
	const writers, rows = 4, 40
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				name := fmt.Sprintf("p-%d-%d", g, i)
				p := privacy.NewPrefs(name, 100)
				p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 4, Granularity: 3, Retention: 5})
				p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: privacy.Level(i % 4), Granularity: 3, Retention: 5})
				if err := db.RegisterProvider(p); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if _, err := db.Insert("t", name, relational.Row{
					relational.Text(name), relational.Float(float64(i)),
				}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := db.SetPolicy(mkPolicy(privacy.Level(1 + i%2))); err != nil {
				t.Errorf("setpolicy: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := db.QueryEnforced(EnforcedQuery{
					Requester: "nurse", Purpose: "care", Visibility: 1,
					SQL: "SELECT provider, weight FROM t", Explain: i%2 == 0,
				})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if res.Stats.RowsReturned > res.Stats.RowsScanned {
					t.Errorf("impossible stats: %+v", res.Stats)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryEnforcedCatalogError pins where table faults surface: a table
// is bound to its provider column once, when RegisterTable admits it, so a
// table whose provider column does not resolve (or whose name is taken) is
// refused there and never becomes readable — a read of it is a plain
// invalid request, and the tables already registered keep answering.
func TestQueryEnforcedCatalogError(t *testing.T) {
	db, _ := enforcedDB(t)
	schema, err := relational.NewSchema([]relational.Column{{Name: "patient", Type: relational.TypeText}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("orphans", schema, "vanished"); err == nil || !strings.Contains(err.Error(), "vanished") {
		t.Fatalf("registration error should name the missing column: %v", err)
	}
	if err := db.RegisterTable("Patients", schema, "patient"); err == nil {
		t.Fatal("a duplicate table name must be refused")
	}
	var denied *query.DeniedError
	var unenf *query.UnenforceableError
	_, err = db.QueryEnforced(EnforcedQuery{
		Requester: "nurse", Purpose: "care", Visibility: 2,
		SQL: "SELECT patient FROM orphans",
	})
	if err == nil || errors.As(err, &denied) || errors.As(err, &unenf) {
		t.Fatalf("read of a refused table = %v, want a plain invalid error", err)
	}
	res, err := db.QueryEnforced(EnforcedQuery{
		Requester: "nurse", Purpose: "care", Visibility: 2,
		SQL: "SELECT patient FROM patients",
	})
	if err != nil || res.Stats.RowsScanned != 4 {
		t.Fatalf("bound table after refused registrations: %v, %+v", err, res)
	}
}
