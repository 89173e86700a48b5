package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ppdb"
	"repro/internal/wal"
)

func TestBuildAndServe(t *testing.T) {
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	db, err := build(corpus, "records", "provider", "weight,condition", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/certify?alpha=0.5", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("certify = %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "IsAlphaPPDB") {
		t.Errorf("body = %s", rec.Body)
	}
	// The policy endpoint serves the corpus policy.
	req = httptest.NewRequest(http.MethodGet, "/policy", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "clinic-v1") {
		t.Errorf("policy = %s", rec.Body)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := build("", "t", "k", "", 0); err == nil {
		t.Error("missing corpus should fail")
	}
	if _, err := build("nope.dsl", "t", "k", "", 0); err == nil {
		t.Error("unreadable corpus should fail")
	}
	tmp := filepath.Join(t.TempDir(), "noprov.dsl")
	if err := writeFile(tmp, `provider "a" threshold 5 { }`); err != nil {
		t.Fatal(err)
	}
	if _, err := build(tmp, "t", "k", "", 0); err == nil {
		t.Error("policyless corpus should fail")
	}
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	if _, err := build(corpus, "t", "", "a", 0); err == nil {
		t.Error("empty key column should fail")
	}
	if _, err := build(corpus, "t", "k", "k", 0); err == nil {
		t.Error("duplicate column should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestLoadBoot(t *testing.T) {
	// Save a built DB and boot from the snapshot directory, as
	// `ppdbserver -load` does; an empty directory must fail.
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	db, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := ppdb.Load(dir, ppdb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Providers()) != len(db.Providers()) {
		t.Errorf("providers = %d, want %d", len(db2.Providers()), len(db.Providers()))
	}
	if _, err := ppdb.Load(t.TempDir(), ppdb.Config{}); err == nil {
		t.Error("empty state dir should fail")
	}
}

// TestServeGracefulDrain proves the acceptance criterion: SIGTERM flips
// readiness, drains the in-flight request to completion, writes a final
// snapshot and returns nil. The in-flight request is held open by feeding
// its body one half at a time over a raw connection.
func TestServeGracefulDrain(t *testing.T) {
	holdSIGTERM(t)
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	db, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(t.TempDir(), "snap")
	done := make(chan error, 1)
	go func() { done <- serve(ln, api, db, snapDir, 0, 5*time.Second) }()

	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	// Open the in-flight request: headers plus half the body, so the
	// handler is parked mid-read when the signal lands.
	body := `{"purpose":"care","visibility":2,"sql":"SELECT weight FROM records"}`
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: ppdb\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server route the request

	// While draining, readiness is down but the listener still answers.
	sigtermUntil(t, func() bool { return draining(base) })

	// Complete the in-flight request: it must be served, not cut off.
	if _, err := io.WriteString(conn, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading drained response: %v", err)
	}
	if !strings.Contains(string(resp), "200 OK") {
		t.Errorf("in-flight request was not drained: %s", resp)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after SIGTERM")
	}
	// The final snapshot landed and is loadable.
	if _, err := ppdb.Load(snapDir, ppdb.Config{}); err != nil {
		t.Errorf("final snapshot unusable: %v", err)
	}
}

// TestServePeriodicSnapshot checks the -snapshot-interval loop persists
// without any signal involved.
func TestServePeriodicSnapshot(t *testing.T) {
	holdSIGTERM(t)
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	db, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(t.TempDir(), "snap")
	done := make(chan error, 1)
	go func() { done <- serve(ln, api, db, snapDir, 30*time.Millisecond, 5*time.Second) }()
	waitHealthy(t, "http://"+ln.Addr().String())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(snapDir, "MANIFEST.json")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := stopServe(t, done); err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if _, err := ppdb.Load(snapDir, ppdb.Config{}); err != nil {
		t.Errorf("periodic snapshot unusable: %v", err)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// draining reports whether the server at base has begun draining:
// readiness answers 503, or the listener already refuses new connections.
func draining(base string) bool {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return true
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusServiceUnavailable
}

// holdSIGTERM subscribes the test to SIGTERM for its whole run, from
// before the server under test starts. The server's own handler is
// installed only once run begins; a signal that lands before then is
// caught here, where the default action would kill the test binary.
func holdSIGTERM(t *testing.T) {
	t.Helper()
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(c) })
}

// sigtermUntil sends the test process SIGTERM, again every 100 ms, until
// stopped reports that the server acted on it. A signal sent before run
// subscribes is absorbed by holdSIGTERM's subscription, so one send is not
// enough.
func sigtermUntil(t *testing.T, stopped func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
			if stopped() {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never acted on SIGTERM")
		}
	}
}

// stopServe signals until the serve or run goroutine reporting on done
// returns, and returns its error.
func stopServe(t *testing.T, done <-chan error) error {
	t.Helper()
	var err error
	sigtermUntil(t, func() bool {
		select {
		case err = <-done:
			return true
		default:
			return false
		}
	})
	return err
}

// TestPprofHandler pins the private profiling mux: the pprof index is
// served, and it never leaks onto the service handler.
func TestPprofHandler(t *testing.T) {
	srv := httptest.NewServer(pprofHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index body missing profile list: %.200s", body)
	}

	// The service handler must not expose the debug routes.
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	db, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("service handler serves /debug/pprof/: %d", rec.Code)
	}
}

// TestServeBootstrapAndWALRestart is the end-to-end durability loop: the
// listener answers "recovering" before the API swaps in, a provider
// registered over HTTP is WAL-durable before the 200 is written, and a
// restarted process replays it from the log with no snapshot involved.
func TestServeBootstrapAndWALRestart(t *testing.T) {
	holdSIGTERM(t)
	corpus := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(wal.Options{Dir: walDir, SyncEvery: 1, SyncInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	boot := httpapi.NewBootstrap()
	srv, errc := startServer(ln, boot)
	base := "http://" + ln.Addr().String()

	// Before the swap: alive, not ready, everything else shed.
	waitHealthy(t, base)
	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := status("/v1/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") {
		t.Errorf("recovering readyz = %d %s", code, body)
	}
	if code, _ := status("/v1/certify"); code != http.StatusServiceUnavailable {
		t.Errorf("recovering certify = %d, want 503", code)
	}

	boot.Set(api)
	if code, _ := status("/v1/readyz"); code != http.StatusOK {
		t.Errorf("post-swap readyz = %d, want 200", code)
	}

	done := make(chan error, 1)
	go func() { done <- run(srv, errc, api, db, "", 0, 5*time.Second) }()

	// A mutation served over HTTP is durable once acknowledged.
	block := `provider "walter" threshold 50 {
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
  }
}`
	resp, err := http.Post(base+"/v1/providers", "text/plain", strings.NewReader(block))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d", resp.StatusCode)
	}

	if err := stopServe(t, done); err != nil {
		t.Fatalf("run returned %v", err)
	}

	// Restart: same corpus, same log — the HTTP-registered provider is
	// replayed even though no snapshot was ever written.
	db2, err := build(corpus, "records", "provider", "weight", 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.AttachWAL(wal.Options{Dir: walDir, SyncEvery: 1, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("restart replay: %v", err)
	}
	defer db2.CloseWAL()
	if n == 0 {
		t.Fatal("restart replayed no records")
	}
	found := false
	for _, p := range db2.Providers() {
		if p.Provider == "walter" {
			found = true
		}
	}
	if !found {
		t.Error("provider registered over HTTP lost across restart")
	}
}
