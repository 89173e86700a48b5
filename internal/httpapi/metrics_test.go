package httpapi

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// scrape GETs /metrics and parses the Prometheus text into a map from
// sample key (name plus rendered labels) to value. Comment lines are
// skipped; histograms contribute their _bucket/_sum/_count samples.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndToEnd is the scrape acceptance test: a real server is
// driven through a success, a client error, a recovered panic and a shed
// request, and the /metrics exposition must account for all of them —
// request counters by route and class, the latency histogram, the
// shed/panic counters, and the paper's population gauges.
func TestMetricsEndToEnd(t *testing.T) {
	defer fault.Reset()
	var reqLog strings.Builder
	db := testServer(t).db
	srv, err := NewWith(db, Options{
		MaxInFlight: 1,
		Logger:      log.New(io.Discard, "", 0),
		RequestLog:  log.New(&reqLog, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := scrape(t, ts.URL)

	get := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// One success and one client error on the certify route.
	get("/certify?alpha=0.5", http.StatusOK)
	get("/certify?alpha=2", http.StatusBadRequest)

	// A recovered panic: 500, process keeps serving.
	fault.ArmPanic("httpapi.handler")
	get("/certify?alpha=0.5", http.StatusInternalServerError)
	fault.Reset()

	// A shed request: park a half-sent POST in the only slot, then poll
	// until a second request is refused with 503 (TestLoadShedding's
	// technique). Polled requests that got through count as 2xx.
	body := `{"purpose":"care","visibility":2,"sql":"SELECT weight FROM t"}`
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	// Wait until the parked request holds the only slot: a poll sent
	// before that could take the slot first and get the parked request
	// shed instead.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never reached ServeHTTP")
		}
		time.Sleep(time.Millisecond)
	}
	shed := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/certify?alpha=0.5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			shed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !shed {
		t.Fatal("server never shed load")
	}
	// Release the parked request and read its answer: net/http sends this
	// small body only once ServeHTTP, which frees the slot before it
	// counts the request, has returned. Then wait for service to resume
	// so every in-flight request has finished before the final scrape.
	if _, err := io.WriteString(conn, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	parked, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	parked.Body.Close()
	if parked.StatusCode != http.StatusOK {
		t.Fatalf("released parked request = %d, want 200", parked.StatusCode)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(ts.URL + "/certify?alpha=0.5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never resumed after shed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	after := scrape(t, ts.URL)
	delta := func(key string) float64 { return after[key] - before[key] }

	// Exact deltas where the traffic is deterministic, lower bounds where
	// the poll loops add 2xx/5xx traffic of their own.
	if d := delta(`httpapi_requests_total{class="2xx",route="/v1/certify"}`); d < 2 {
		t.Errorf("2xx /certify moved %g, want >= 2", d)
	}
	if d := delta(`httpapi_requests_total{class="4xx",route="/v1/certify"}`); d != 1 {
		t.Errorf("4xx /certify moved %g, want 1", d)
	}
	if d := delta(`httpapi_requests_total{class="5xx",route="/v1/certify"}`); d < 2 {
		t.Errorf("5xx /certify moved %g, want >= 2 (one panic, one shed)", d)
	}
	if d := delta(`httpapi_requests_total{class="2xx",route="/v1/query"}`); d != 1 {
		t.Errorf("2xx /query moved %g, want 1 (the released parked request)", d)
	}
	if d := delta("httpapi_panics_total"); d != 1 {
		t.Errorf("panics moved %g, want 1", d)
	}
	if d := delta("httpapi_shed_total"); d < 1 {
		t.Errorf("sheds moved %g, want >= 1", d)
	}
	if got := after["httpapi_in_flight"]; got != 0 {
		t.Errorf("in-flight gauge = %g at quiescence, want 0", got)
	}

	// The latency histogram accounts for every measured /certify request:
	// its _count moves in lockstep with the route's request counters.
	certifyReqs := delta(`httpapi_requests_total{class="2xx",route="/v1/certify"}`) +
		delta(`httpapi_requests_total{class="4xx",route="/v1/certify"}`) +
		delta(`httpapi_requests_total{class="5xx",route="/v1/certify"}`)
	if d := delta(`httpapi_request_seconds_count{route="/v1/certify"}`); d != certifyReqs {
		t.Errorf("histogram count moved %g, request counters moved %g", d, certifyReqs)
	}
	if d := delta(`httpapi_request_seconds_bucket{route="/v1/certify",le="+Inf"}`); d != certifyReqs {
		t.Errorf("+Inf bucket moved %g, want %g", d, certifyReqs)
	}

	// The process-wide gauges ride along on the same exposition: the
	// paper's population quantities and the ledger/fault instrumentation.
	for _, name := range []string{"ppdb_providers", "ppdb_pw", "ppdb_pdefault", "ledger_rows"} {
		if _, ok := after[name]; !ok {
			t.Errorf("scrape is missing %s", name)
		}
	}
	if d := delta(`fault_trips_total{site="httpapi.handler"}`); d != 1 {
		t.Errorf("fault trips moved %g, want 1", d)
	}

	// The request log carries structured lines for the measured traffic —
	// including the shed 503 — but never for the scrape itself.
	logged := reqLog.String()
	if !strings.Contains(logged, `event=request method=GET path=/certify route=/v1/certify status=200`) {
		t.Errorf("request log missing the certify line:\n%s", logged)
	}
	if !strings.Contains(logged, "status=503") {
		t.Errorf("request log missing the shed line:\n%s", logged)
	}
	if strings.Contains(logged, "path=/metrics") {
		t.Errorf("scrapes must not be request-logged:\n%s", logged)
	}
}
