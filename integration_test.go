package repro_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/fault"
	"repro/internal/generalize"
	"repro/internal/httpapi"
	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// TestCorpusFilesParse keeps the shipped DSL corpora loadable.
func TestCorpusFilesParse(t *testing.T) {
	for _, path := range []string{"examples/corpus/clinic.dsl", "examples/corpus/clinic-v2.dsl"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		doc, err := policydsl.Parse(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if doc.Policy == nil {
			t.Errorf("%s: no policy", path)
		}
	}
}

// TestEndToEndLifecycle drives the full pipeline: parse a corpus, stand up a
// PPDB, serve purpose-bound queries, certify, widen the policy, watch
// violations and defaults appear, enforce the defaults, and re-certify.
func TestEndToEndLifecycle(t *testing.T) {
	src, err := os.ReadFile("examples/corpus/clinic.dsl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}

	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ppdb.New(ppdb.Config{
		Policy:      doc.Policy,
		AttrSens:    doc.AttrSens,
		Hierarchies: map[string]generalize.Hierarchy{"weight": weightH},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "condition", Type: relational.TypeText},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("records", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	rows := map[string]relational.Row{
		"maria": {relational.Text("maria"), relational.Text("asthma"), relational.Float(61.5)},
		"omar":  {relational.Text("omar"), relational.Text("diabetes"), relational.Float(92)},
		"ada":   {relational.Text("ada"), relational.Text("flu"), relational.Float(70)},
	}
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("records", p.Provider, rows[p.Provider]); err != nil {
			t.Fatal(err)
		}
	}

	// Care query at house class sees exact data. The corpus policy does not
	// cover the provider-identity column, so the query touches only the
	// governed attributes.
	res, err := db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "dr", Purpose: "care", Visibility: 2,
		SQL: "SELECT condition, weight FROM records ORDER BY weight",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if w, _ := res.Rows[0][1].AsFloat(); w != 61.5 { // maria is lightest
		t.Errorf("care weight = %v", res.Rows[0][1])
	}
	// Identity reads are refused: the policy does not cover "provider".
	if _, err := db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "dr", Purpose: "care", Visibility: 2,
		SQL: "SELECT provider FROM records",
	}); err == nil {
		t.Fatal("uncovered identity column must be denied")
	}

	// Research on weight is not in the corpus policy → denied.
	if _, err := db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "lab", Purpose: "research", Visibility: 3,
		SQL: "SELECT weight FROM records",
	}); err == nil {
		t.Fatal("research on weight must be denied")
	}

	// Certification: omar never consented to research on condition →
	// implicit zero → violated and would default.
	cert, err := db.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Report.ViolatedCount != 1 || len(cert.WouldDefault) != 1 || cert.WouldDefault[0] != "omar" {
		t.Fatalf("cert = %+v", cert.Report)
	}
	if !cert.IsAlphaPPDB {
		t.Error("P(W)=1/3 ≤ 0.5 should certify")
	}

	// Enforce defaults: omar leaves with his data.
	gone, removed, err := db.EnforceDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 1 || removed != 1 || db.TableLen("records") != 2 {
		t.Fatalf("defaults: gone=%v removed=%d left=%d", gone, removed, db.TableLen("records"))
	}

	// Re-certify: clean.
	cert, err = db.Certify(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.IsAlphaPPDB {
		t.Error("after enforcement the DB should be a 0-PPDB")
	}

	// Retention: everything expires after its year.
	if _, err := db.Advance(400 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	sweep, err := db.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if db.TableLen("records") != 0 {
		t.Errorf("after sweep %d rows remain (report %+v)", db.TableLen("records"), sweep)
	}

	// Audit trail recorded one allowed and two denied accesses.
	recs := db.Audit().Records()
	if len(recs) != 3 {
		t.Fatalf("audit = %+v", recs)
	}
	if !recs[0].Allowed || recs[1].Allowed || recs[2].Allowed {
		t.Errorf("audit dispositions wrong: %+v", recs)
	}
}

// TestEndToEndExpansionEconomics couples a DSL-defined policy with a
// generated population and checks the Eq. 31 arithmetic end to end.
func TestEndToEndExpansionEconomics(t *testing.T) {
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "condition", Sensitivity: 5, Purposes: []privacy.Purpose{"care"}},
		},
	}, 202)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(600))

	hp := privacy.NewHousePolicy("v1")
	hp.Add("condition", privacy.Tuple{Purpose: "care", Visibility: 1, Granularity: 1, Retention: 1})

	sc := &economics.Scenario{
		BasePolicy:  hp,
		AttrSens:    gen.AttributeSensitivities(),
		BaseUtility: 10,
	}
	points, err := sc.Run(pop, []economics.Step{
		economics.WidenStep("condition", privacy.DimVisibility, 2),
		economics.WidenStep("condition", privacy.DimRetention, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		// Eq. 31 cross-check: Justified ⇔ UtilityFuture > UtilityCurrent ⇔
		// accumulated T > BreakEvenT (when NFuture > 0).
		accT := p.PerProviderU - sc.BaseUtility
		if p.NFuture > 0 {
			if got, want := p.Justified, accT > p.BreakEvenT; got != want {
				t.Errorf("point %d: Justified=%v but T=%g vs break-even %g", i, got, accT, p.BreakEvenT)
			}
		}
	}
}

// TestDSLRenderIsStable ensures the shipped corpus round-trips through
// Render (so users can regenerate their corpora from parsed state).
func TestDSLRenderIsStable(t *testing.T) {
	src, err := os.ReadFile("examples/corpus/clinic.dsl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	rendered := policydsl.Render(doc)
	doc2, err := policydsl.Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, rendered)
	}
	if !doc.Policy.Equal(doc2.Policy) || len(doc.Providers) != len(doc2.Providers) {
		t.Error("render round-trip lost information")
	}
	if !strings.Contains(rendered, "clinic-v1") {
		t.Error("rendered corpus missing policy name")
	}
}

// TestAssessorAgreesWithPPDBCertify pins the audit path (core) and the
// enforcement path (ppdb) to the same numbers.
func TestAssessorAgreesWithPPDBCertify(t *testing.T) {
	src, err := os.ReadFile("examples/corpus/clinic.dsl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := core.NewAssessor(doc.Policy, doc.AttrSens, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct := assessor.AssessPopulation(doc.Providers)

	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	cert, err := db.Certify(1)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Report.PW != direct.PW || cert.Report.PDefault != direct.PDefault ||
		cert.Report.TotalViolations != direct.TotalViolations {
		t.Errorf("paths disagree: core %+v vs ppdb %+v", direct, cert.Report)
	}
}

// TestEndToEndCrashRecovery drives the durability layer through the whole
// stack: certify a PPDB, snapshot it, crash a subsequent save mid-rotation
// (via internal/fault), reload from the surviving generation, and serve
// the recovered database over the hardened HTTP layer.
func TestEndToEndCrashRecovery(t *testing.T) {
	defer fault.Reset()
	src, err := os.ReadFile("examples/corpus/clinic.dsl")
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
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	certBefore, err := db.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}

	// The next save dies between retiring the old generation and
	// publishing the new one — the worst crash window.
	if _, err := db.Advance(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	fault.ArmCrash("persist.rename.live")
	if err := db.Save(dir); !fault.IsCrash(err) {
		t.Fatalf("armed save returned %v, want simulated crash", err)
	}
	fault.Reset()

	db2, err := ppdb.Load(dir, ppdb.Config{})
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	certAfter, err := db2.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if certAfter.Report.PW != certBefore.Report.PW ||
		certAfter.Report.TotalViolations != certBefore.Report.TotalViolations {
		t.Errorf("recovered certification %+v != pre-crash %+v", certAfter.Report, certBefore.Report)
	}

	// The recovered DB serves traffic through the hardened handler.
	api, err := httpapi.New(db2)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after recovery = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/certify/summary?alpha=0.5", nil)
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "IsAlphaPPDB") {
		t.Errorf("certify after recovery = %d %s", rec.Code, rec.Body)
	}
}
