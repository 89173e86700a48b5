// Command perfbench is the repository benchmark: it serves a ppdb.DB
// through the real httpapi.Server on a loopback listener, drives it with
// one of three seeded workloads, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run of the same request stream). See README.md.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workload is one traffic mix over one dataset size. Why each exists is
// recorded in README.md and, for the gated ones, in BENCHMARK.json.
type workload struct {
	name      string
	providers int
	clients   int // connections, each driven by its own goroutine
}

var workloads = []*workload{
	// Requesters. One closed-loop client: with two, the clients and the
	// server kept both vCPUs of a 2-vCPU VM busy, and throughput spread
	// about twice as much between runs made at the same time (README.md).
	{name: "serve-read", providers: 20000, clients: 1},
	// Providers. Run by hand only: BENCHMARK.json leaves it out, because
	// its 100k-provider set-ups would leave the gated runs too short to be
	// steady (README.md).
	{name: "provider-churn", providers: 100000, clients: 2},
	{name: "audit-policy", providers: 20000, clients: 2}, // auditors
}

// setups is how many set-ups a timed run makes; setup_s is their median.
const setups = 3

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is one invocation.
type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	setups  int    // setups timed for setup_s
	scale   int    // divides the dataset size (tests run tiny)
	out     string // directory for server files and span dumps
	commit  string
}

func main() {
	wlName := flag.String("workload", "", "workload: serve-read, provider-churn or audit-policy")
	seed := flag.Int64("seed", 1, "seed for the dataset and the request streams")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	commit := flag.String("commit", "none", "commit the program was built from, for the environment stamp")
	flag.Parse()
	wl := findWorkload(*wlName)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags (see -h)")
		os.Exit(2)
	}
	// Server files and span dumps go under .bench_build in the working
	// directory, the checkout's root when started by run.sh.
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups,
		scale: 1, out: ".bench_build", commit: *commit}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of a run with their sample counts, and why
// a metric without samples could not be measured.
type report struct {
	metrics map[string]metric
	samples map[string]int
	notes   map[string]string
	order   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// print writes the metrics as a table, each with its sample count.
func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %-8s n=%d", name, m.Value, m.Unit, r.samples[name])
		if note := r.notes[name]; note != "" {
			fmt.Fprintf(w, "  (not measured: %s)", note)
		}
		fmt.Fprintln(w)
	}
}

func run(cfg config, w io.Writer) (res *result, err error) {
	n := cfg.wl.providers / cfg.scale
	dir, err := filepath.Abs(filepath.Join(cfg.out, "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	t0 := time.Now()
	ds, err := newDataset(n, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v providers=%d inputs=%.2fs\n",
		cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace, n, time.Since(t0).Seconds())
	if cfg.trace {
		return runTraced(cfg, ds, dir, w)
	}
	return runTimed(cfg, ds, dir, w)
}

// timedRun is one untraced window over a loaded server.
type timedRun struct {
	closed, open *recorder
	elapsed      time.Duration
	before       counters
	after        counters
	proc         procDelta
	heapMB       float64
	walBytes     int64
	env          *envStamp
}

// runTimed sets up cfg.setups times (setup_s is their median), then runs
// one untraced window on the last server and prints the end-to-end
// metrics.
func runTimed(cfg config, ds *dataset, dir string, w io.Writer) (*result, error) {
	var setupS []float64
	var s *server
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		s, d, err = setup(filepath.Join(dir, "setup-"+strconv.Itoa(i)), ds, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	ds.dropBodies()
	tr, err := timedWindow(cfg, s, ds)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.set("setup_s", median(setupS), "s", len(setupS))
	endToEnd(rep, cfg.wl, tr)
	tr.env.print(w)
	printErrs(w, tr.closed, tr.open)
	rep.print(w, "end-to-end ("+cfg.wl.name+")")
	return finish(rep, endToEndNames, tr.closed, tr.open), nil
}

// timedWindow runs one untraced window with counter scrapes around it.
func timedWindow(cfg config, s *server, ds *dataset) (*timedRun, error) {
	tr := &timedRun{env: stamp(cfg, s)}
	c := newClient(s.base)
	defer c.closeIdle()
	runtime.GC()
	var err error
	if tr.before, err = scrape(c); err != nil {
		return nil, err
	}
	wal0, err := s.walBytes()
	if err != nil {
		return nil, err
	}
	p0 := readProc()
	world := &world{ds: ds}
	tr.closed, tr.open, tr.elapsed = window(s, cfg.wl, world, cfg.seed, time.Duration(cfg.seconds)*time.Second, nil)
	tr.proc = readProc().sub(p0)
	if tr.after, err = scrape(c); err != nil {
		return nil, err
	}
	wal1, err := s.walBytes()
	if err != nil {
		return nil, err
	}
	tr.walBytes = wal1 - wal0
	tr.heapMB = liveHeapMB()
	return tr, nil
}

// endToEndNames are the metrics BENCHMARK.json gates: the ones every
// workload measures.
var endToEndNames = []string{"setup_s", "throughput_rps", "heap_live_mb"}

// subWindow is the length of the slices a closed-loop window is cut into.
// The lookup p50 is a median over slices (over auditor cycles on
// audit-policy), so a burst of interference from outside the benchmark
// moves it less than a whole-window p50 would.
const subWindow = 1.0 // seconds

// slices returns the slice boundaries of a window, in seconds from its
// start: whole seconds for closed loops (a trailing partial second is
// dropped), the end of each auditor cycle on audit-policy.
func slices(wl *workload, tr *timedRun) []float64 {
	edges := []float64{0}
	if wl.name == "audit-policy" {
		for _, s := range tr.closed.lat[clsPolicySwap] {
			edges = append(edges, s.at)
		}
		sort.Float64s(edges)
		return edges
	}
	for e := subWindow; e <= tr.elapsed.Seconds(); e += subWindow {
		edges = append(edges, e)
	}
	return edges
}

// bySlice groups the samples' values by the slice [edges[i], edges[i+1])
// their time falls in.
func bySlice(edges []float64, xs []sample) [][]float64 {
	out := make([][]float64, max(len(edges)-1, 0))
	for _, x := range xs {
		i := sort.Search(len(edges), func(j int) bool { return edges[j] > x.at }) - 1
		if i >= 0 && i < len(out) {
			out[i] = append(out[i], x.ms)
		}
	}
	return out
}

// endToEnd adds every end-to-end metric the workload measures. The ones
// outside endToEndNames are printed for reading but not gated.
func endToEnd(rep *report, wl *workload, tr *timedRun) {
	closed, open := tr.closed, tr.open
	edges := slices(wl, tr)
	// Throughput is a whole-window rate, not a median over slices: the
	// streams' decks fix the mix over the window but not within a slice,
	// and slice rates spread with the scans a slice happens to hold.
	rep.set("throughput_rps", float64(closed.completed)/tr.elapsed.Seconds(), "req/s", closed.completed)
	att, failed := closed.attempted+open.attempted, closed.failed+open.failed
	rep.set("failed_frac", float64(failed)/float64(max(att, 1)), "ratio", att)
	rep.set("heap_live_mb", tr.heapMB, "MB", 1)
	lookups := closed.lat[clsLookup]
	if wl.name == "audit-policy" {
		lookups = open.lat[clsLookup]
	}
	// The lookup p50 is the median of the slices' p50s.
	var p50s []float64
	for _, v := range bySlice(edges, lookups) {
		if len(v) >= minSliceSamples {
			p50s = append(p50s, median(v))
		}
	}
	rep.set("lookup_p50_ms", median(p50s), "ms", len(lookups))
	rep.set("lookup_p99_ms", quantile(values(lookups), 0.99), "ms", len(lookups))
	switch wl.name {
	case "serve-read":
		pcts(rep, "query_point", closed.lat[clsQueryPoint], true)
		pcts(rep, "query_scan", closed.lat[clsQueryScan], true)
	case "provider-churn":
		pcts(rep, "write", closed.lat[clsWrite], true)
	case "audit-policy":
		pcts(rep, "write", closed.lat[clsWrite], false)
		pcts(rep, "certify", closed.lat[clsCertify], false)
		pcts(rep, "whatif", closed.lat[clsWhatIf], false)
		pcts(rep, "policy_swap", closed.lat[clsPolicySwap], false)
		rep.set("loadgen.late_p99_ms", quantile(open.late, 0.99), "ms", len(open.late))
	}
}

// minSliceSamples is the fewest lookups a slice needs to contribute a p50.
const minSliceSamples = 5

// pcts sets <name>_p50_ms and, when asked, <name>_p99_ms.
func pcts(rep *report, name string, xs []sample, p99 bool) {
	v := values(xs)
	rep.set(name+"_p50_ms", quantile(v, 0.5), "ms", len(v))
	if p99 {
		rep.set(name+"_p99_ms", quantile(v, 0.99), "ms", len(v))
	}
}

func printErrs(w io.Writer, recs ...*recorder) {
	for _, r := range recs {
		for _, e := range r.errs {
			fmt.Fprintf(w, "# failed: %s\n", e)
		}
	}
}

// finish builds the result line from the named metrics.
func finish(rep *report, names []string, recs ...*recorder) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, r := range recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, name := range names {
		res.Metrics[name] = rep.metrics[name]
	}
	return res
}
