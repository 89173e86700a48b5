// Benchmark harness: one benchmark per paper artifact (see the experiment
// index in DESIGN.md) plus scaling and ablation benches for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/generalize"
	"repro/internal/hierdata"
	"repro/internal/httpapi"
	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
	"repro/internal/wal"
	"repro/internal/whatif"
)

// BenchmarkTable1 regenerates the Sec. 8 worked example (E1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if !r.Matches() {
			b.Fatal("Table 1 reproduction diverged")
		}
	}
}

// BenchmarkFigure1 regenerates the violation-geometry cases (E2).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(experiments.Figure1()); got != 11 {
			b.Fatalf("cases = %d", got)
		}
	}
}

// BenchmarkFigure2 runs the notation walk-through on a live PPDB (E3).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpansion runs the Sec. 9 utility trade-off sweep (E4).
func BenchmarkExpansion(b *testing.B) {
	cfg := experiments.ExpansionConfig{N: 2000, Seed: 2011, BaseUtility: 10, StepUtility: 2, Steps: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Expansion(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Optimal < 0 {
			b.Fatal("no optimum")
		}
	}
}

// BenchmarkAccumulation runs the violation-accumulation series (E5).
func BenchmarkAccumulation(b *testing.B) {
	cfg := experiments.ExpansionConfig{N: 2000, Seed: 2011, BaseUtility: 10, StepUtility: 2, Steps: 6}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Accumulation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimator runs the Defs. 2/5 estimator convergence ladder (E6).
func BenchmarkEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Estimator(1000, 5, []int{10, 100, 1000, 10000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlphaPPDB runs the α-certification sweep (E7).
func BenchmarkAlphaPPDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AlphaSweep(1000, 3, 5, experiments.DefaultAlphas()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineContrast runs the internal-vs-external risk contrast (E8).
func BenchmarkBaselineContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BaselineContrast(300, 11, 3, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the model-variant study.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(500, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scaling micro-benches ---

// benchPopulation builds a reusable assessor + population of size n.
func benchPopulation(b *testing.B, n int) (*core.Assessor, []*privacy.Prefs) {
	b.Helper()
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 99)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(n))
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	a, err := core.NewAssessor(hp, gen.AttributeSensitivities(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return a, pop
}

// BenchmarkAssessPopulation measures P(W)/P(Default)/Violations computation
// throughput at three population sizes.
func BenchmarkAssessPopulation(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		a, pop := benchPopulation(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := a.AssessPopulation(pop)
				if rep.N != n {
					b.Fatal("wrong N")
				}
			}
		})
	}
}

// benchCertifyDB builds a PPDB with n registered providers for the
// certification benches (the ledger is built once by RegisterProviders).
func benchCertifyDB(b *testing.B, n int) *ppdb.DB {
	b.Helper()
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 99)
	if err != nil {
		b.Fatal(err)
	}
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	db, err := ppdb.New(ppdb.Config{Policy: hp, AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterProviders(population.PrefsOf(gen.Generate(n))); err != nil {
		b.Fatal(err)
	}
	return db
}

// certifyBenchSizes are the populations the certification benches run at;
// scripts/bench.sh records both in BENCH_certify.json.
var certifyBenchSizes = []int{1000, 100000}

// BenchmarkCertifyCold measures the seed full-recompute certification path
// (CertifyFull): every provider is re-assessed on every call, O(N).
func BenchmarkCertifyCold(b *testing.B) {
	for _, n := range certifyBenchSizes {
		db := benchCertifyDB(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cert, err := db.CertifyFull(0.1)
				if err != nil {
					b.Fatal(err)
				}
				if cert.Report.N != n {
					b.Fatal("wrong N")
				}
			}
		})
	}
}

// BenchmarkCertifyIncremental measures the ledger path after a
// single-provider preference edit: each iteration applies one self-service
// edit (an O(1) delta to the ledger) and certifies from the materialized
// rows — no population re-assessment.
func BenchmarkCertifyIncremental(b *testing.B) {
	for _, n := range certifyBenchSizes {
		db := benchCertifyDB(b, n)
		// Two preference variants for one provider, alternated so every
		// iteration is a real state change, never a memoization hit.
		variants := make([]*privacy.Prefs, 2)
		for v := range variants {
			p := privacy.NewPrefs("provider-0000", 5)
			lv := privacy.Level(v) // 0 → violated, 1 → still violated, differently
			p.Add("weight", privacy.Tuple{Purpose: "service", Visibility: lv, Granularity: lv, Retention: lv})
			p.Add("income", privacy.Tuple{Purpose: "service", Visibility: lv, Granularity: lv, Retention: lv})
			variants[v] = p
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.UpdatePreferences("provider-0000", variants[i%2]); err != nil {
					b.Fatal(err)
				}
				cert, err := db.Certify(0.1)
				if err != nil {
					b.Fatal(err)
				}
				if cert.Report.N != n {
					b.Fatal("wrong N")
				}
			}
		})
	}
}

// BenchmarkBulkIngest measures atomic bulk registration
// (RegisterProviders: validate, compile and assess across the fan-out,
// build the ledger) of 100k providers into an empty store. The population
// is generated once outside the timer.
func BenchmarkBulkIngest(b *testing.B) {
	const n = 100000
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 99)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(n))
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	b.Run(sizeName(n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := ppdb.New(ppdb.Config{Policy: hp, AttrSens: gen.AttributeSensitivities()})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterProviders(pop); err != nil {
				b.Fatal(err)
			}
			if db.NumProviders() != n {
				b.Fatal("wrong count")
			}
		}
	})
}

// BenchmarkIngestDurable measures single-provider upsert throughput with
// durability on the line: no WAL at all, then a WAL attached at three
// group-commit batch sizes (Options.SyncEvery). Writers run under
// b.RunParallel because group commit is a concurrency optimisation — a lone
// writer pays each fsync (or flusher tick) alone, while GOMAXPROCS writers
// share one fsync per batch, so the batch>1 modes should close most of the
// gap to wal=off as parallelism rises. Recorded in BENCH_certify.json by
// scripts/bench.sh; gated by scripts/benchgate.sh.
func BenchmarkIngestDurable(b *testing.B) {
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 99)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(4096))
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	modes := []struct {
		name      string
		durable   bool
		syncEvery int
	}{
		{"wal=off", false, 0},
		{"wal=batch1", true, 1},
		{"wal=batch16", true, 16},
		{"wal=batch64", true, 64},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			db, err := ppdb.New(ppdb.Config{Policy: hp, AttrSens: gen.AttributeSensitivities()})
			if err != nil {
				b.Fatal(err)
			}
			if m.durable {
				if _, err := db.AttachWAL(wal.Options{
					Dir:          b.TempDir(),
					SyncEvery:    m.syncEvery,
					SyncInterval: 2 * time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
			}
			var (
				next     atomic.Uint64
				errMu    sync.Mutex
				firstErr error
			)
			// Enough concurrent writers that the batch thresholds actually
			// trigger early group commits: with only GOMAXPROCS writers,
			// pending never reaches 64 and every mode just waits out the
			// flusher tick.
			b.SetParallelism(32)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					p := pop[int(next.Add(1))%len(pop)]
					if err := db.RegisterProvider(p); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			})
			b.StopTimer()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
			if m.durable {
				if err := db.CloseWAL(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALReplay measures recovery from the write-ahead log alone:
// AttachWAL into a fresh store over perfbench's 20k providers under its
// policy A, logged as batch registrations of about 1 MiB of DSL each. Each
// iteration decodes every record, then compiles and assesses every
// provider.
func BenchmarkWALReplay(b *testing.B) {
	const n = 20000
	pol := benchPolicies(b)[0]
	pop := benchWestin(b, n)
	dir := b.TempDir()
	db, err := ppdb.New(ppdb.Config{Policy: pol.Policy, AttrSens: pol.AttrSens})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AttachWAL(wal.Options{Dir: dir}); err != nil {
		b.Fatal(err)
	}
	records := 0
	for lo := 0; lo < n; records++ {
		hi, size := lo, 0
		for hi < n && size < 1<<20 {
			size += len(policydsl.Render(&policydsl.Document{Providers: pop[hi : hi+1]}))
			hi++
		}
		if err := db.RegisterProviders(pop[lo:hi]); err != nil {
			b.Fatal(err)
		}
		lo = hi
	}
	if err := db.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.Run("shipped-"+sizeName(n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := ppdb.New(ppdb.Config{Policy: pol.Policy, AttrSens: pol.AttrSens})
			if err != nil {
				b.Fatal(err)
			}
			got, err := db.AttachWAL(wal.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if got != records || db.NumProviders() != n {
				b.Fatalf("replayed %d records into %d providers, want %d into %d", got, db.NumProviders(), records, n)
			}
			if err := db.CloseWAL(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCertifySummary measures the O(1) aggregate-only certification.
func BenchmarkCertifySummary(b *testing.B) {
	db := benchCertifyDB(b, 100000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := db.CertifySummary(0.1)
		if err != nil {
			b.Fatal(err)
		}
		if sum.N != 100000 {
			b.Fatal("wrong N")
		}
	}
}

// discardResponse is an http.ResponseWriter that counts the body and
// throws it away, so BenchmarkCertifyHTTP times the handler, not a sink.
type discardResponse struct {
	header http.Header
	status int
	bytes  int64
}

func (w *discardResponse) Header() http.Header  { return w.header }
func (w *discardResponse) WriteHeader(code int) { w.status = code }
func (w *discardResponse) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// BenchmarkCertifyHTTP measures GET /v1/certify through the whole handler
// (routing, instrumentation, Certify and the body encoding) into a
// discarding ResponseWriter: the route's cost without the network. The
// 1k/100k stores hold the two-attribute certification population (~1.5 KB
// of body a provider); shipped-20k holds perfbench's: its 20k providers
// under policy A, ~5.5 KB a provider.
func BenchmarkCertifyHTTP(b *testing.B) {
	run := func(name string, db *ppdb.DB) {
		srv, err := httpapi.New(db)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/certify?alpha=0.1", nil)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := discardResponse{header: http.Header{}}
				srv.ServeHTTP(&w, req)
				if w.status != http.StatusOK || w.bytes == 0 {
					b.Fatalf("status %d, %d bytes", w.status, w.bytes)
				}
			}
		})
	}
	for _, n := range certifyBenchSizes {
		run(sizeName(n), benchCertifyDB(b, n))
	}
	const shipped = 20000
	run("shipped-"+sizeName(shipped), benchShippedDB(b, benchPolicies(b)[0], shipped))
}

// BenchmarkEstimatePW measures the trial-based Def. 2 estimator.
func BenchmarkEstimatePW(b *testing.B) {
	a, pop := benchPopulation(b, 1000)
	rng := population.NewRNG(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.EstimatePW(pop, 10000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKAnonSearch measures the full-domain lattice search baseline.
func BenchmarkKAnonSearch(b *testing.B) {
	schema, err := population.MicrodataSchema()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"p"}}},
	}, 5)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]relational.Row, 500)
	for i := range rows {
		if rows[i], err = schema.CheckRow(gen.MicrodataRow(sizeName(i))); err != nil {
			b.Fatal(err)
		}
	}
	ageH, _ := generalize.NewNumericHierarchy(10, 2, 3)
	cityH, _ := generalize.NewCategoryHierarchy(map[string]string{
		"calgary": "west", "edmonton": "west", "vancouver": "west",
		"toronto": "east", "montreal": "east", "west": "canada", "east": "canada",
	})
	an, err := generalize.NewAnonymizer(schema, rows, map[string]generalize.Hierarchy{"age": ageH, "city": cityH}, "condition")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := an.SearchK(4)
		if err != nil {
			b.Fatal(err)
		}
		if !rel.IsKAnonymous(4) {
			b.Fatal("not anonymous")
		}
	}
}

// --- ablation benches (design choices from DESIGN.md §5) ---

// BenchmarkImplicitZero contrasts assessment with and without the Sec. 5
// implicit-zero rule.
func BenchmarkImplicitZero(b *testing.B) {
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
		},
	}, 17)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(1000))
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("weight", privacy.Tuple{Purpose: "analytics", Visibility: 2, Granularity: 2, Retention: 2})
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"with-rule", core.Options{}},
		{"without-rule", core.Options{DisableImplicitZero: true}},
	} {
		a, err := core.NewAssessor(hp, gen.AttributeSensitivities(), variant.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.AssessPopulation(pop)
			}
		})
	}
}

// BenchmarkPurposeLattice contrasts equality matching with lattice matching.
func BenchmarkPurposeLattice(b *testing.B) {
	lattice := privacy.NewLattice()
	if err := lattice.AddEdge("service", "service-analytics"); err != nil {
		b.Fatal(err)
	}
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
		},
	}, 23)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(1000))
	hp := privacy.NewHousePolicy("bench")
	hp.Add("weight", privacy.Tuple{Purpose: "service-analytics", Visibility: 2, Granularity: 2, Retention: 2})
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"equality", core.Options{}},
		{"lattice", core.Options{Matcher: lattice}},
	} {
		a, err := core.NewAssessor(hp, gen.AttributeSensitivities(), variant.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.AssessPopulation(pop)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return itoa(n/1000) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkGame runs the Stackelberg policy game (E9).
func BenchmarkGame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Game(500, 2011, 2)
		if err != nil {
			b.Fatal(err)
		}
		if r.PayoffGain < 0 {
			b.Fatal("incentives regressed the optimum")
		}
	}
}

// BenchmarkLegacy runs the Sec. 10 default-estimation study (E10).
func BenchmarkLegacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Legacy(1000, 41, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierdataAssess measures the XML-extension assessor on a
// moderately deep document.
func BenchmarkHierdataAssess(b *testing.B) {
	doc, err := hierdata.ParseXML(strings.NewReader(`
<patient>
  <name>M</name>
  <contact><email>m@x</email><phone>5</phone></contact>
  <vitals><weight>61</weight><condition>a</condition><bp>120</bp></vitals>
  <billing><card>4111</card><balance>12</balance></billing>
</patient>`))
	if err != nil {
		b.Fatal(err)
	}
	pol := hierdata.NewPathPolicy("v1")
	pol.Add("/patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	pol.Add("/patient/vitals", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	prefs := hierdata.NewPathPrefs("m", 40)
	prefs.Add("/patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	a := &hierdata.Assessor{Policy: pol, PathSens: map[string]float64{"/patient/vitals": 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.AssessDocument(doc, prefs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSLParse measures policy-corpus parsing throughput.
func BenchmarkDSLParse(b *testing.B) {
	src, err := os.ReadFile("examples/corpus/clinic.dsl")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := policydsl.Parse(string(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetentionSweep measures the PPDB retention sweeper over 2k rows.
func BenchmarkRetentionSweep(b *testing.B) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := ppdb.New(ppdb.Config{Policy: hp})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		name := "p" + itoa(i)
		p := privacy.NewPrefs(name, 100)
		if err := db.RegisterProvider(p); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Insert("t", name, relational.Row{
			relational.Text(name), relational.Float(float64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMLParity runs the flat/hierarchical parity check (E11).
func BenchmarkXMLParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.XMLParity(300, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllAgree {
			b.Fatal("parity broken")
		}
	}
}

// queryPop is the preference mix of an enforced-query bench population:
// the visibility and granularity levels provider i grants on weight.
type queryPop func(i int) (v, g privacy.Level)

// The enforced-query bench populations. clean conforms end to end and
// measures the pure per-datum check overhead. violating suppresses every
// third row (weight visibility below the request class) and generalizes
// every fifth remaining one (granularity below the policy grant). rangePop
// is serve-read's shape: 60% of rows suppressed and 30% of weight cells
// generalized to text, which no numeric range can decide.
var (
	cleanPop     queryPop = func(int) (privacy.Level, privacy.Level) { return 4, 3 }
	violatingPop queryPop = func(i int) (privacy.Level, privacy.Level) {
		switch {
		case i%3 == 0:
			return 1, 3
		case i%5 == 0:
			return 4, 1
		}
		return 4, 3
	}
	rangePop queryPop = func(i int) (privacy.Level, privacy.Level) {
		switch r := i % 10; {
		case r < 6:
			return 1, 3
		case r < 9:
			return 4, 1
		}
		return 4, 3
	}
)

// benchQueryDB builds a PPDB with n one-row providers for the enforced
// query benches: provider qI owns one row of table t with weight
// 40 + I mod 90, and grants weight the levels pop gives it.
func benchQueryDB(b *testing.B, n int, pop queryPop) *ppdb.DB {
	b.Helper()
	hp := privacy.NewHousePolicy("bench-query")
	hp.Add("provider", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 3, Retention: 5})
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 3, Retention: 5})
	db, err := ppdb.New(ppdb.Config{Policy: hp})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		b.Fatal(err)
	}
	prefs := make([]*privacy.Prefs, 0, n)
	for i := 0; i < n; i++ {
		name := "q" + itoa(i)
		p := privacy.NewPrefs(name, 100)
		p.Add("provider", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 3, Retention: 5})
		v, g := pop(i)
		p.Add("weight", privacy.Tuple{Purpose: "service", Visibility: v, Granularity: g, Retention: 5})
		prefs = append(prefs, p)
	}
	if err := db.RegisterProviders(prefs); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("t", "q"+itoa(i), relational.Row{
			relational.Text("q" + itoa(i)), relational.Float(float64(40+i%90) + 0.5),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkQueryEnforced measures the per-datum enforcement hot path
// (DESIGN.md §15). clean and violating run a full-scan SELECT without
// WHERE over 10k/100k rows. range-scan is serve-read's scan: a WHERE
// range over weight at 20k rows, where most rows are suppressed or carry
// a generalized cell the range cannot decide, so the scan returns ~1% of
// them. The per-row cost is a shard-locked provider lookup plus one
// compiled binding fold per referenced column; ns/op, B/op and allocs/op
// are recorded in BENCH_certify.json and gated by scripts/benchgate.sh.
func BenchmarkQueryEnforced(b *testing.B) {
	for _, bc := range []struct {
		name string
		pop  queryPop
		n    int
		sql  string
	}{
		{"clean", cleanPop, 10000, "SELECT provider, weight FROM t"},
		{"clean", cleanPop, 100000, "SELECT provider, weight FROM t"},
		{"violating", violatingPop, 10000, "SELECT provider, weight FROM t"},
		{"violating", violatingPop, 100000, "SELECT provider, weight FROM t"},
		{"range-scan", rangePop, 20000, "SELECT provider, weight FROM t WHERE weight >= 60 AND weight < 70"},
	} {
		db := benchQueryDB(b, bc.n, bc.pop)
		req := ppdb.EnforcedQuery{Requester: "bench", Purpose: "service", Visibility: 2, SQL: bc.sql}
		b.Run(bc.name+"/"+sizeName(bc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.QueryEnforced(req)
				if err != nil {
					b.Fatal(err)
				}
				if bc.name != "clean" && res.Stats.RowsSuppressed == 0 {
					b.Fatal("violating population produced no suppressions")
				}
				if res.Stats.RowsScanned != bc.n {
					b.Fatal("scan did not cover the table")
				}
			}
		})
	}
}

// benchPolicies parses the two perfbench policies, A then B.
func benchPolicies(b *testing.B) [2]*policydsl.Document {
	b.Helper()
	var docs [2]*policydsl.Document
	for i, vis := range []string{"third-party", "world"} {
		doc, err := policydsl.Parse(population.BenchPolicyDSL("bench-"+string(rune('a'+i)), vis))
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

// benchWestin draws perfbench's provider population — n Westin-segment
// providers over its four attributes — and round-trips it through the DSL,
// so the preferences are shaped exactly as a server that ingested them
// holds them.
func benchWestin(b *testing.B, n int) []*privacy.Prefs {
	b.Helper()
	gen, err := population.NewGenerator(population.BenchConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	src := policydsl.Render(&policydsl.Document{Scales: privacy.DefaultScales(), Providers: population.PrefsOf(gen.Generate(n))})
	doc, err := policydsl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return doc.Providers
}

// benchShippedDB serves n providers of perfbench's population under pol,
// as the benchmark's server holds them.
func benchShippedDB(b *testing.B, pol *policydsl.Document, n int) *ppdb.DB {
	b.Helper()
	db, err := ppdb.New(ppdb.Config{Policy: pol.Policy, AttrSens: pol.AttrSens})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterProviders(benchWestin(b, n)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkCompile measures compiling one provider of the perfbench
// population against policy A — the per-provider cost a registration pays
// once and a policy swap pays for every provider.
func BenchmarkCompile(b *testing.B) {
	pol := benchPolicies(b)[0]
	pop := benchWestin(b, 20000)
	a, err := core.NewAssessor(pol.Policy, pol.AttrSens, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompiled = a.Compile(pop[i%len(pop)])
	}
}

// benchCompiled keeps BenchmarkCompile's result live.
var benchCompiled *core.CompiledPrefs

// BenchmarkSetPolicy measures PUT /v1/policy's store work in the shipped
// configuration (implicit zeros on): each iteration swaps between the two
// perfbench policies, recompiling and re-assessing all 100k providers under
// the exclusive lock.
func BenchmarkSetPolicy(b *testing.B) {
	const n = 100000
	pols := benchPolicies(b)
	db := benchShippedDB(b, pols[0], n)
	next := 1 // the live policy is A; every swap goes to the other one
	b.Run("shipped-"+sizeName(n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.SetPolicy(pols[next].Policy); err != nil {
				b.Fatal(err)
			}
			next ^= 1
		}
	})
}

// BenchmarkWhatIfStorm measures concurrent POST /v1/whatif evaluation —
// the shadow-policy read path under storm load, zero live-state mutation.
// The population splits 90/10: every provider states preferences on
// "common", every tenth also on "rare". With implicit zeros disabled the
// narrow diff (retarget rare) re-assesses only the 10% slice and serves
// the rest from memoized live reports, while the full diff (retarget
// common) re-assesses everyone; the gap between the two sub-benches is
// the price the memo-reuse invariant saves.
func BenchmarkWhatIfStorm(b *testing.B) {
	benchWhatIf(b, core.Options{DisableImplicitZero: true}, func(resp *whatif.Response, n int) bool {
		return !resp.GlobalFallback
	})
}

// BenchmarkWhatIfShipped is BenchmarkWhatIfStorm in the configuration the
// server runs: the same population, policy and diffs under the paper's
// Sec. 5 implicit zero. There every retarget changes what an empty
// preference set sees, so both diffs take the global fallback and the
// shadow kernel re-assesses all n providers.
func BenchmarkWhatIfShipped(b *testing.B) {
	benchWhatIf(b, core.Options{}, func(resp *whatif.Response, n int) bool {
		return resp.GlobalFallback && resp.Affected == n
	})
}

// benchWhatIf runs the what-if storm over 100k providers under opts, one
// sub-bench per diff; shape must accept every response.
func benchWhatIf(b *testing.B, opts core.Options, shape func(resp *whatif.Response, n int) bool) {
	const n = 100000
	hp := privacy.NewHousePolicy("bench")
	hp.Add("common", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("rare", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1})
	pop := make([]*privacy.Prefs, 0, n)
	for i := 0; i < n; i++ {
		p := privacy.NewPrefs("p"+itoa(i), float64(5+i%40))
		p.Add("common", privacy.Tuple{Purpose: "service", Visibility: privacy.Level(1 + i%2), Granularity: 2, Retention: 2})
		if i%10 == 0 {
			p.Add("rare", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: privacy.Level(1 + i%3)})
		}
		pop = append(pop, p)
	}
	diffs := []struct {
		name string
		diff whatif.Diff
	}{
		{"narrow-" + sizeName(n), whatif.Diff{Retarget: []whatif.TupleSpec{
			{Attribute: "rare", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}}}},
		{"full-" + sizeName(n), whatif.Diff{Retarget: []whatif.TupleSpec{
			{Attribute: "common", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}}}},
	}
	for _, d := range diffs {
		b.Run(d.name, func(b *testing.B) {
			db, err := ppdb.New(ppdb.Config{
				Policy:   hp,
				AttrSens: privacy.AttributeSensitivities{"common": 2, "rare": 6},
				Options:  opts,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterProviders(pop); err != nil {
				b.Fatal(err)
			}
			req := &whatif.Request{Diff: d.diff, U: 10, T: 1}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := db.WhatIf(req)
					if err != nil {
						b.Fatal(err)
					}
					if resp.Current.N != n || !shape(resp, n) {
						b.Fatal("unexpected evaluation shape")
					}
				}
			})
		})
	}
}
