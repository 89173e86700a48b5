package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke run checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// commonMetrics are the end-to-end metrics every workload's report prints,
// and workloadMetrics the ones only some workloads have.
var (
	commonMetrics = []string{"setup_s", "throughput_rps", "failed_frac", "heap_live_mb",
		"lookup_p50_ms", "lookup_p99_ms"}
	workloadMetrics = map[string][]string{
		"serve-read":     {"query_point_p50_ms", "query_point_p99_ms", "query_scan_p50_ms", "query_scan_p99_ms"},
		"provider-churn": {"write_p50_ms", "write_p99_ms"},
		"audit-policy": {"write_p50_ms", "certify_p50_ms", "whatif_p50_ms", "policy_swap_p50_ms",
			"loadgen.late_p99_ms"},
	}
)

// reportLines maps each metric line of a report to its fields: value, unit
// and sample count.
func reportLines(report string) map[string][]string {
	out := map[string][]string{}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "  ") && len(f) >= 4 && strings.HasPrefix(f[3], "n=") {
			out[f[0]] = f[1:4]
		}
	}
	return out
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit,
// that the report carries each workload's own metrics with sample counts,
// and that no request failed. provider-churn is not in BENCHMARK.json but
// runs here all the same.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, bw := range bf.Workloads {
		if findWorkload(bw.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", bw.Name)
		}
	}
	specs := perLayerSpecs()
	if len(bf.PerLayer) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, traced runs print %d", len(bf.PerLayer), len(specs))
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + map[bool]string{false: "/timed", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{wl: wl, seed: 7, seconds: 1, trace: traced, setups: 2, scale: 1000,
					out: t.TempDir(), commit: "test"}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v\n%s", res.Attempted, res.Failed, res.Correct, out.String())
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				report := out.String()
				if !strings.Contains(report, "# env nproc=") || !strings.Contains(report, "commit=test") {
					t.Errorf("report lacks the environment stamp:\n%s", report)
				}
				lines := reportLines(report)
				names := append(append([]string(nil), commonMetrics...), workloadMetrics[wl.name]...)
				if traced {
					names = specNames(perLayerSpecs())
				}
				for _, m := range names {
					if f, ok := lines[m]; !ok || f[1] == "" {
						t.Errorf("report lacks %s with a unit:\n%s", m, report)
					}
				}
				if f := lines["failed_frac"]; !traced && (len(f) == 0 || f[0] != "0.0000") {
					t.Errorf("failed_frac is %v, want 0:\n%s", f, report)
				}
			})
		}
	}
}

// TestStreamsDeterministic checks that a seed fixes the request stream:
// the traced run replays exactly what the timed run sent.
func TestStreamsDeterministic(t *testing.T) {
	ds, err := newDataset(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	paths := func() []string {
		w := &world{ds: ds}
		var out []string
		for _, st := range []stream{newReadStream(w, 3, 0), newChurnStream(w, 3, 1), newAuditStream(w, 3), newLookupStream(w, 3)} {
			for i := 0; i < 40; i++ {
				o := st.next()
				out = append(out, o.method+" "+o.path+" "+string(o.body))
			}
		}
		return out
	}
	a, b := paths(), paths()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}
