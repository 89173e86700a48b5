package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
)

// envStamp is the environment every result is stamped with.
type envStamp struct {
	nproc, gomaxprocs, shards int
	goVersion, walPolicy      string
	walFS, commit             string
	seed                      int64
}

func stamp(cfg config, s *server) *envStamp {
	return &envStamp{
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), shards: s.db.ShardCount(),
		goVersion: runtime.Version(),
		walPolicy: fmt.Sprintf("group-commit interval=%s every=%d", walSyncInterval, walSyncEvery),
		walFS:     fsType(filepath.Join(s.dir, "wal")), commit: cfg.commit, seed: cfg.seed,
	}
}

// print writes the stamp, with the process's peak resident set so far.
func (e *envStamp) print(w io.Writer) {
	var ru syscall.Rusage
	//lint:ignore errflow[getrusage(RUSAGE_SELF) fails only on a bad pointer]
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d go=%s shards=%d wal=%q walfs=%s seed=%d commit=%s peak_rss_mb=%d\n",
		e.nproc, e.gomaxprocs, e.goVersion, e.shards, e.walPolicy, e.walFS, e.seed, e.commit, ru.Maxrss/1024)
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// procDelta is the Go runtime's work over a window: process CPU time,
// heap allocations, and the GC's share of CPU.
type procDelta struct {
	cpu      time.Duration
	mallocs  uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
}

func readProc() procDelta {
	var ru syscall.Rusage
	//lint:ignore errflow[getrusage(RUSAGE_SELF) fails only on a bad pointer]
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	return procDelta{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64(),
	}
}

func (p procDelta) sub(q procDelta) procDelta {
	return procDelta{cpu: p.cpu - q.cpu, mallocs: p.mallocs - q.mallocs,
		gcCPU: p.gcCPU - q.gcCPU, totalCPU: p.totalCPU - q.totalCPU}
}

// liveHeapMB is the live heap after full collections. The second one
// frees what sync.Pool victim caches kept alive through the first (such
// as encoding/json's buffer for a 100 MB certification body).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters is one GET /v1/metrics?format=json scrape: counter and gauge
// values summed over label sets, histograms as <name>_sum and <name>_count.
type counters map[string]float64

func scrape(c *client) (counters, error) {
	status, body, err := c.do(http.MethodGet, "/v1/metrics?format=json", nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: status %d", status)
	}
	var doc struct {
		Families []struct {
			Name   string
			Series []struct {
				Value     *float64
				Histogram *struct {
					Sum   float64
					Count float64
				}
			}
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	out := counters{}
	for _, f := range doc.Families {
		for _, s := range f.Series {
			switch {
			case s.Value != nil:
				out[f.Name] += *s.Value
			case s.Histogram != nil:
				out[f.Name+"_sum"] += s.Histogram.Sum
				out[f.Name+"_count"] += s.Histogram.Count
			}
		}
	}
	return out, nil
}

// delta is after − before for one counter.
func delta(before, after counters, name string) float64 { return after[name] - before[name] }
