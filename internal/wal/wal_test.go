package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// fastOpts keeps unit tests off the default 2ms flush timer.
func fastOpts(dir string) Options {
	return Options{Dir: dir, SyncEvery: 1, SyncInterval: time.Millisecond}
}

func mustAppend(t *testing.T, l *Log, typ byte, data string) uint64 {
	t.Helper()
	lsn, err := l.Append(Record{Type: typ, Data: []byte(data)})
	if err != nil {
		t.Fatalf("Append(%q): %v", data, err)
	}
	return lsn
}

type replayed struct {
	lsn  uint64
	typ  byte
	data string
}

func replayAll(t *testing.T, l *Log, from uint64) []replayed {
	t.Helper()
	var got []replayed
	n, err := l.Replay(from, func(lsn uint64, rec Record) error {
		got = append(got, replayed{lsn, rec.Type, string(rec.Data)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	if n != len(got) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(got))
	}
	return got
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := []replayed{
		{1, 1, "alpha"},
		{2, 2, ""},
		{3, 1, strings.Repeat("x", 4096)},
		{4, 7, "{\"json\":true}"},
	}
	for _, w := range want {
		if lsn := mustAppend(t, l, w.typ, w.data); lsn != w.lsn {
			t.Fatalf("append LSN = %d, want %d", lsn, w.lsn)
		}
	}
	if got := l.LastLSN(); got != 4 {
		t.Errorf("LastLSN = %d", got)
	}
	if got := l.DurableLSN(); got != 4 {
		t.Errorf("DurableLSN = %d (SyncEvery=1 should have committed each append)", got)
	}
	check := func(l *Log) {
		t.Helper()
		got := replayAll(t, l, 0)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	check(l) // replay over the live log
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 4 {
		t.Errorf("reopened LastLSN = %d", got)
	}
	check(l2) // replay after recovery
	// Appends continue from the recovered position.
	if lsn := mustAppend(t, l2, 1, "five"); lsn != 5 {
		t.Errorf("post-recovery LSN = %d, want 5", lsn)
	}
}

func TestWALReplayFrom(t *testing.T) {
	l, err := Open(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, 1, fmt.Sprintf("r%d", i))
	}
	got := replayAll(t, l, 3)
	if len(got) != 2 || got[0].lsn != 4 || got[1].lsn != 5 {
		t.Fatalf("Replay(3) = %+v, want LSNs 4,5", got)
	}
	if got := replayAll(t, l, 5); len(got) != 0 {
		t.Errorf("Replay(5) = %+v, want empty", got)
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts(dir)
	opts.SegmentBytes = 256 // rotate every few records
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		mustAppend(t, l, 1, strings.Repeat("p", 64))
	}
	if sc := l.SegmentCount(); sc < 3 {
		t.Fatalf("SegmentCount = %d, want several at a 256-byte threshold", sc)
	}
	if got := replayAll(t, l, 0); len(got) != n || got[n-1].lsn != n {
		t.Fatalf("replay across segments: %d records, last LSN %d", len(got), got[len(got)-1].lsn)
	}
	// Truncation drops whole obsolete segments but never the open one,
	// and everything past the cutoff survives.
	before := l.SegmentCount()
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	if after := l.SegmentCount(); after >= before || after < 1 {
		t.Errorf("TruncateBefore: segments %d -> %d", before, after)
	}
	got := replayAll(t, l, 20)
	if len(got) != n-20 || got[0].lsn > 21 {
		t.Errorf("post-truncate Replay(20): %d records, first LSN %d", len(got), got[0].lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery agrees after the truncation.
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != n {
		t.Errorf("recovered LastLSN = %d, want %d", got, n)
	}
}

// TestWALTornTailShortWrite injects a silently truncated final append and
// requires recovery to drop exactly that record, warn, and count it.
func TestWALTornTailShortWrite(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	l, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "good-one")
	mustAppend(t, l, 1, "good-two")
	fault.ArmShortWrite("wal.append", 5) // frame loses all but 5 bytes
	mustAppend(t, l, 1, "torn-record")
	fault.Disarm("wal.append")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	opts := fastOpts(dir)
	opts.Logger = log.New(&warn, "", 0)
	trunc0 := mTailTruncated.Value()
	l2, err := Open(opts)
	if err != nil {
		t.Fatalf("Open over a torn tail must succeed, got %v", err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 2 {
		t.Errorf("recovered LastLSN = %d, want 2 (torn record dropped)", got)
	}
	got := replayAll(t, l2, 0)
	if len(got) != 2 || got[1].data != "good-two" {
		t.Errorf("recovered records = %+v", got)
	}
	if d := mTailTruncated.Value() - trunc0; d != 1 {
		t.Errorf("wal_tail_truncated_total advanced by %d, want 1", d)
	}
	if !strings.Contains(warn.String(), "tail_truncated") {
		t.Errorf("no tail_truncated warning logged; log output: %q", warn.String())
	}
	// The truncated position is reusable: the next append takes LSN 3 and
	// survives another cycle.
	if lsn := mustAppend(t, l2, 1, "after"); lsn != 3 {
		t.Errorf("post-truncation LSN = %d, want 3", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := replayAll(t, l3, 0); len(got) != 3 || got[2].data != "after" {
		t.Errorf("second recovery = %+v", got)
	}
}

// tornLengthFrames is one good frame, then a frame header whose length
// claims 60 MiB with 3 payload bytes behind it: with the 16-byte header, a
// 38-byte segment.
func tornLengthFrames() []byte {
	frames := appendFrame(nil, Record{Type: 1, Data: []byte("ok")})
	frames = binary.LittleEndian.AppendUint32(frames, 60<<20)
	frames = binary.LittleEndian.AppendUint32(frames, 0) // CRC
	return append(frames, 1, 2, 3)
}

// TestWALTornLengthAllocatesNothing opens a segment whose last frame claims
// a length that runs past the end of the file. Open must report that torn
// tail before allocating the payload, truncate the segment to the good
// frame and replay it.
func TestWALTornLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := segmentPath(dir, 1)
	file := append(encodeHeader(1), tornLengthFrames()...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(dir)
	opts.Logger = log.New(io.Discard, "", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open over a torn tail must succeed, got %v", err)
	}
	defer l.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Open of a %d-byte segment allocated %d bytes; want under 1 MiB", len(file), got)
	}
	if got := replayAll(t, l, 0); len(got) != 1 || got[0].data != "ok" {
		t.Errorf("recovered records = %+v, want the one good frame", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(file) - 11); st.Size() != want {
		t.Errorf("segment truncated to %d bytes, want %d", st.Size(), want)
	}
}

// TestWALTornTailFlipByte injects single-byte corruption into the final
// append; the CRC catches it and recovery truncates from there.
func TestWALTornTailFlipByte(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	l, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "intact")
	fault.ArmFlipByte("wal.append", frameOverhead+3) // flip inside the payload
	mustAppend(t, l, 1, "corrupt")
	fault.Disarm("wal.append")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	trunc0 := mTailTruncated.Value()
	l2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatalf("Open over a CRC-failing tail must succeed, got %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2, 0)
	if len(got) != 1 || got[0].data != "intact" {
		t.Errorf("recovered records = %+v", got)
	}
	if d := mTailTruncated.Value() - trunc0; d != 1 {
		t.Errorf("wal_tail_truncated_total advanced by %d, want 1", d)
	}
}

// TestWALMidLogCorruptionFails flips a byte in a *non-final* segment on
// disk: that is not crash debris, and Open must refuse rather than skip
// acknowledged records.
func TestWALMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts(dir)
	opts.SegmentBytes = 128
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, l, 1, strings.Repeat("m", 48))
	}
	if l.SegmentCount() < 2 {
		t.Fatal("need at least two segments for the test")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) < 2 {
		t.Fatalf("glob: %v (%d files)", err, len(names))
	}
	first := names[0] // glob sorts; lowest base LSN
	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+frameOverhead+2] ^= 0xFF
	if err := os.WriteFile(first, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open accepted mid-log corruption in a non-final segment")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("error %q does not name the CRC failure", err)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncEvery: 16, SyncInterval: 500 * time.Microsecond}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	lsns := make([][]uint64, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(Record{Type: 1, Data: []byte(fmt.Sprintf("w%d.%d", g, i))})
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				lsns[g] = append(lsns[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	// Every writer saw strictly increasing LSNs, the set is dense, and
	// every acknowledged append is durable.
	seen := map[uint64]bool{}
	for g, ls := range lsns {
		for i, lsn := range ls {
			if i > 0 && lsn <= ls[i-1] {
				t.Fatalf("writer %d: LSN %d after %d", g, lsn, ls[i-1])
			}
			if seen[lsn] {
				t.Fatalf("duplicate LSN %d", lsn)
			}
			seen[lsn] = true
		}
	}
	if len(seen) != writers*each {
		t.Fatalf("%d distinct LSNs, want %d", len(seen), writers*each)
	}
	if got := l.DurableLSN(); got != uint64(writers*each) {
		t.Errorf("DurableLSN = %d, want %d", got, writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != writers*each {
		t.Errorf("recovered %d records, want %d", len(got), writers*each)
	}
}

func TestWALEnsureFloor(t *testing.T) {
	dir := t.TempDir()
	// Fresh directory with a checkpoint floor: FirstLSN lines the first
	// segment up past the checkpointed history.
	opts := fastOpts(dir)
	opts.FirstLSN = 101
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if lsn := mustAppend(t, l, 1, "first"); lsn != 101 {
		t.Errorf("FirstLSN append = %d, want 101", lsn)
	}
	// A floor at or below the current position is a no-op.
	if err := l.EnsureFloor(50); err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 101 {
		t.Errorf("EnsureFloor(50) moved LastLSN to %d", got)
	}
	// A floor ahead of a non-empty segment rotates, leaving a legal gap.
	if err := l.EnsureFloor(200); err != nil {
		t.Fatal(err)
	}
	if lsn := mustAppend(t, l, 1, "after-gap"); lsn != 201 {
		t.Errorf("post-floor append = %d, want 201", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The gap survives recovery.
	l2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2, 0)
	if len(got) != 2 || got[0].lsn != 101 || got[1].lsn != 201 {
		t.Fatalf("recovered records = %+v", got)
	}
	// Replay from inside the gap sees only the later record.
	if got := replayAll(t, l2, 150); len(got) != 1 || got[0].lsn != 201 {
		t.Errorf("Replay(150) = %+v", got)
	}
	// Floor over an *empty* open segment replaces it instead of leaving a
	// zero-record file behind.
	segs0 := l2.SegmentCount()
	if err := l2.EnsureFloor(300); err != nil {
		t.Fatal(err)
	}
	if got := l2.SegmentCount(); got != segs0 {
		// rotation path would add one; replacement keeps the count
		t.Logf("segment count after empty-floor: %d (was %d)", got, segs0)
	}
	if lsn := mustAppend(t, l2, 1, "third"); lsn != 301 {
		t.Errorf("append after empty-segment floor = %d, want 301", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := replayAll(t, l3, 0); len(got) != 3 || got[2].lsn != 301 {
		t.Errorf("final recovery = %+v", got)
	}
}

// TestWALCrashSites arms a simulated crash at each WAL fault site in turn
// and requires (a) the operation to surface an IsCrash error and (b)
// recovery over the debris to retain every previously acknowledged record.
func TestWALCrashSites(t *testing.T) {
	for _, site := range []string{"wal.append", "wal.fsync", "wal.rotate"} {
		t.Run(site, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			opts := fastOpts(dir)
			if site == "wal.rotate" {
				opts.SegmentBytes = 64 // force a rotation attempt quickly
			}
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			acked := uint64(0)
			for i := 0; i < 3; i++ {
				acked = mustAppend(t, l, 1, strings.Repeat("a", 40))
			}
			fault.ArmCrash(site)
			_, err = l.Append(Record{Type: 1, Data: []byte(strings.Repeat("b", 40))})
			if !fault.IsCrash(err) {
				t.Fatalf("append through armed %s = %v, want IsCrash", site, err)
			}
			// The log is wedged: nothing more is accepted.
			if _, err := l.Append(Record{Type: 1, Data: []byte("late")}); err == nil {
				t.Error("append after a crash succeeded")
			}
			fault.Reset()
			// Abandon l (the process "died"); recover from disk.
			l2, err := Open(fastOpts(dir))
			if err != nil {
				t.Fatalf("recovery after %s crash: %v", site, err)
			}
			defer l2.Close()
			// Every acknowledged record survives; the unacknowledged one may
			// or may not, depending on where the crash hit.
			if got := l2.LastLSN(); got < acked || got > acked+1 {
				t.Errorf("recovered LastLSN = %d, want %d or %d", got, acked, acked+1)
			}
			got := replayAll(t, l2, 0)
			for i := 0; i < int(acked); i++ {
				if got[i].data != strings.Repeat("a", 40) {
					t.Errorf("acknowledged record %d corrupted: %q", i+1, got[i].data)
				}
			}
		})
	}
}

func TestWALTruncateAndReplayFaultSites(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	opts := fastOpts(dir)
	opts.SegmentBytes = 64
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		mustAppend(t, l, 1, strings.Repeat("t", 40))
	}
	fault.ArmError("wal.checkpoint.truncate", nil)
	segs := l.SegmentCount()
	if err := l.TruncateBefore(9); err == nil {
		t.Error("TruncateBefore through armed site succeeded")
	}
	if got := l.SegmentCount(); got != segs {
		t.Errorf("failed truncation removed segments: %d -> %d", segs, got)
	}
	fault.ArmError("wal.replay", nil)
	if _, err := l.Replay(0, func(uint64, Record) error { return nil }); err == nil {
		t.Error("Replay through armed site succeeded")
	}
	fault.Reset()
	// Both operations work once disarmed, and no records were lost.
	if err := l.TruncateBefore(9); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l, 9); len(got) != 1 || got[0].lsn != 10 {
		t.Errorf("post-fault replay = %+v", got)
	}
}

// TestWALFsyncErrorWedges: a real (non-crash) fsync failure must wedge the
// log — acknowledging later appends after losing one would reorder history.
func TestWALFsyncErrorWedges(t *testing.T) {
	defer fault.Reset()
	l, err := Open(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, 1, "ok")
	fault.ArmError("wal.fsync", io.ErrShortWrite)
	if _, err := l.Append(Record{Type: 1, Data: []byte("lost")}); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	fault.Disarm("wal.fsync")
	if _, err := l.Append(Record{Type: 1, Data: []byte("after")}); err == nil {
		t.Error("log accepted an append after wedging")
	}
	if err := l.Sync(); err == nil {
		t.Error("Sync on a wedged log reported success")
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	l, err := Open(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "x")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if _, err := l.Append(Record{Type: 1}); err != ErrClosed {
		t.Errorf("Append on closed = %v", err)
	}
	if err := l.TruncateBefore(1); err != ErrClosed {
		t.Errorf("TruncateBefore on closed = %v", err)
	}
	if _, err := l.Replay(0, nil); err != ErrClosed {
		t.Errorf("Replay on closed = %v", err)
	}
}
