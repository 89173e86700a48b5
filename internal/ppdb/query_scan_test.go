package ppdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/generalize"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// scanDB is a generated store for the enforced-scan tests: n providers
// p0000… with one row each in table people (patient, age, weight, city),
// inserted over a simulated month so that short retention grants expire.
// Each provider's preferences are drawn from rng: levels below the policy
// suppress the row, coarsen a cell or expire it. age generalizes through a
// numeric hierarchy; weight and city have none and degrade to "*".
func scanDB(t testing.TB, n int, seed int64) *DB {
	t.Helper()
	ageH, err := generalize.NewNumericHierarchy(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("scan")
	for _, attr := range []string{"patient", "age", "weight", "city"} {
		hp.Add(attr, privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
		hp.Add(attr, privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	}
	db, err := New(Config{Policy: hp, Hierarchies: map[string]generalize.Hierarchy{"age": ageH}})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "weight", Type: relational.TypeFloat},
		{Name: "city", Type: relational.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("people", schema, "patient"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	level := func(levels int) privacy.Level { return privacy.Level(rng.Intn(levels)) }
	prefs := make([]*privacy.Prefs, n)
	for i := range prefs {
		p := privacy.NewPrefs(fmt.Sprintf("p%04d", i), 50)
		for _, attr := range []string{"patient", "age", "weight", "city"} {
			p.Add(attr, privacy.Tuple{Purpose: "care", Visibility: 2 + level(3), Granularity: 1 + level(3), Retention: 2 + level(3)})
			if rng.Intn(3) > 0 {
				p.Add(attr, privacy.Tuple{Purpose: "research", Visibility: level(5), Granularity: level(4), Retention: level(6)})
			}
		}
		prefs[i] = p
	}
	if err := db.RegisterProviders(prefs); err != nil {
		t.Fatal(err)
	}
	cities := []string{"paris", "lyon", "nice", "lille"}
	for i := range prefs {
		if i%(n/8+1) == 0 {
			if _, err := db.Advance(4 * 24 * time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		age := relational.Int(int64(18 + rng.Intn(70)))
		if rng.Intn(10) == 0 {
			age = relational.Null()
		}
		if _, err := db.Insert("people", prefs[i].Provider, relational.Row{
			relational.Text(prefs[i].Provider), age, relational.Float(40 + float64(rng.Intn(900))/10),
			relational.Text(cities[rng.Intn(len(cities))]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// scanQueries generates the enforced-scan test's query set: projections,
// range, equality, IN, NULL, LIKE and boolean predicates (including ones
// a generalized or expired cell cannot decide), primary-key probes,
// ORDER BY and LIMIT/OFFSET, for both purposes at every requester class.
func scanQueries(rng *rand.Rand, n int) []EnforcedQuery {
	projections := []string{"patient", "patient, weight", "age, city", "*", "city, weight, age", "weight AS w, patient"}
	predicates := []func() string{
		func() string { return "" },
		func() string {
			lo := 40 + rng.Intn(80)
			return fmt.Sprintf(" WHERE weight >= %d AND weight < %d", lo, lo+10)
		},
		func() string { return fmt.Sprintf(" WHERE age > %d OR city = 'nice'", 20+rng.Intn(60)) },
		func() string { return fmt.Sprintf(" WHERE patient = 'p%04d'", rng.Intn(300)) },
		func() string { return fmt.Sprintf(" WHERE patient = 'p%04d' AND weight > 50", rng.Intn(300)) },
		func() string { return " WHERE age IS NULL" },
		func() string { return " WHERE NOT (weight < 60)" },
		func() string { return " WHERE city IN ('paris', 'lyon', '*')" },
		func() string { return " WHERE city LIKE 'l%'" },
		func() string { return " WHERE age = '[20-30)' OR weight = '*'" },
		func() string { return " WHERE weight * 2 > 150 AND NOT (city = 'nice' OR age < 30)" },
	}
	orders := []string{"", "", " ORDER BY weight DESC", " ORDER BY city, age", " ORDER BY age * 2"}
	windows := []string{"", "", " LIMIT 5", " LIMIT 3 OFFSET 2", " OFFSET 40"}
	purposes := []privacy.Purpose{"care", "research"}
	qs := make([]EnforcedQuery, n)
	for i := range qs {
		qs[i] = EnforcedQuery{
			Requester:  "analyst",
			Purpose:    purposes[rng.Intn(len(purposes))],
			Visibility: privacy.Level(1 + rng.Intn(3)),
			SQL: "SELECT " + projections[rng.Intn(len(projections))] + " FROM people" +
				predicates[rng.Intn(len(predicates))]() + orders[rng.Intn(len(orders))] + windows[rng.Intn(len(windows))],
		}
	}
	return qs
}

// TestEnforcedScanEquivalence runs one generated query set over stores
// built at every fan-out width (procSweep), with EXPLAIN on and off: every
// run must answer the same columns, rows, stats and scan kind as the
// serial run without EXPLAIN, and the EXPLAIN traces must agree across
// widths. EXPLAIN off skips the
// trace work and stops at a row's first visibility violation, so this pins
// that the fast path decides exactly what the traced one does.
func TestEnforcedScanEquivalence(t *testing.T) {
	const providers = 300
	qs := scanQueries(rand.New(rand.NewSource(7)), 250)
	type answer struct {
		res   *query.Result
		err   string
		trace string
	}
	run := func(db *DB, q EnforcedQuery) answer {
		res, err := db.QueryEnforced(q)
		if err != nil {
			return answer{err: err.Error()}
		}
		a := answer{res: res}
		if res.Explain != nil {
			a.trace = res.Explain.Render()
			res.Explain = nil
		}
		return a
	}
	var base []answer
	var traces []string
	var matched, probes int
	var total query.Stats
	for _, procs := range procSweep {
		setProcs(t, procs)
		db := scanDB(t, providers, 2026)
		for _, explain := range []bool{false, true} {
			for i, q := range qs {
				q.Explain = explain
				got := run(db, q)
				switch {
				case base == nil || len(base) <= i:
					if r := got.res; r != nil {
						if r.Stats.RowsMatched > 0 {
							matched++
						}
						if r.IndexScan {
							probes++
						}
						total.RowsSuppressed += r.Stats.RowsSuppressed
						total.CellsGeneralized += r.Stats.CellsGeneralized
						total.CellsExpired += r.Stats.CellsExpired
					}
					base = append(base, got)
					continue
				case got.err != base[i].err || !reflect.DeepEqual(got.res, base[i].res):
					t.Fatalf("procs=%d explain=%v query %q:\n got %+v %q\nwant %+v %q",
						procs, explain, q.SQL, got.res, got.err, base[i].res, base[i].err)
				}
				if explain {
					if len(traces) <= i {
						traces = append(traces, got.trace)
					} else if got.trace != traces[i] {
						t.Fatalf("procs=%d query %q: EXPLAIN differs from the serial run:\n%s\nwant:\n%s", procs, q.SQL, got.trace, traces[i])
					}
				}
			}
		}
	}
	// The query set must exercise answers, not only refusals, and every
	// enforcement action on both scan kinds.
	if matched < len(qs)/4 || probes == 0 || total.RowsSuppressed == 0 || total.CellsGeneralized == 0 || total.CellsExpired == 0 {
		t.Fatalf("weak query set: %d of %d queries matched a row, %d probed the index, totals %+v", matched, len(qs), probes, total)
	}
}

// TestEnforcedScanAllocsFlat bounds the scan's garbage: with EXPLAIN
// off, a full scan whose every row is suppressed or fails WHERE allocates
// the same at 1k and 10k rows — the per-row path allocates nothing.
func TestEnforcedScanAllocsFlat(t *testing.T) {
	scanAllocs := func(n int) float64 {
		db := scanDB(t, n, 11)
		q := EnforcedQuery{Requester: "analyst", Purpose: "research", Visibility: 3,
			SQL: "SELECT patient, weight, city FROM people WHERE weight >= 1000 AND weight < 1010 OR city = 'nowhere'"}
		res, _, err := db.queryShared(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsScanned != n || res.Stats.RowsMatched != 0 || res.Stats.RowsSuppressed == 0 {
			t.Fatalf("scan over %d rows: stats %+v", n, res.Stats)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := db.queryShared(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := scanAllocs(1000), scanAllocs(10000); small != large {
		t.Errorf("a scan that keeps no row allocates %v times at 1k rows and %v at 10k", small, large)
	}
}
