// Package wal is an append-only write-ahead log of opaque records in
// CRC32C-framed, length-prefixed frames, stored in numbered segment files
// (DESIGN.md §14).
//
// Durability model. Append assigns the record its LSN and hands the frame
// to a buffered writer under the log's mutex, then blocks until a group
// commit makes it durable: a background flusher fsyncs on a timer
// (Options.SyncInterval) or as soon as Options.SyncEvery appends are
// pending, whichever comes first, so one fsync acknowledges a whole batch
// of concurrent appenders. The first flush or fsync failure wedges the log
// — every waiting and subsequent Append returns that error — because a
// WAL that lost a write cannot promise anything about order afterwards.
//
// LSNs are positional: a segment file's name and header carry its base
// LSN, and a record's LSN is the base plus its index in the segment. The
// frame does not repeat the LSN, so a frame can never claim a position its
// offset contradicts.
//
// Recovery. Open scans every segment in LSN order. Undecodable bytes in
// the final segment are the expected debris of a crash mid-append: the
// tail is truncated away, logged, and counted (wal_tail_truncated_total)
// — never an error. Undecodable bytes in any earlier segment are mid-log
// corruption and fail Open loudly.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/kvlog"
	"repro/internal/metrics"
)

var (
	mAppends = metrics.Default.Counter("wal_append_records_total",
		"records appended to the write-ahead log")
	mFsyncs = metrics.Default.Counter("wal_fsync_total",
		"group-commit fsyncs of the write-ahead log")
	mFsyncSeconds = metrics.Default.Histogram("wal_fsync_seconds",
		"duration of group-commit fsyncs", metrics.DefBuckets)
	mSyncErrors = metrics.Default.Counter("wal_sync_errors_total",
		"flush or fsync failures that wedged the log")
	mRotations = metrics.Default.Counter("wal_rotations_total",
		"segment rotations at the size threshold")
	mSegsRemoved = metrics.Default.Counter("wal_segments_removed_total",
		"obsolete segments removed by checkpoint truncation")
	mReplayRecords = metrics.Default.Counter("wal_replay_records_total",
		"records replayed from the write-ahead log during recovery")
	mTailTruncated = metrics.Default.Counter("wal_tail_truncated_total",
		"torn or corrupted tail records truncated away on open")
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a Log. The zero value of every field selects a
// sensible default.
type Options struct {
	// Dir holds the segment files; created if absent.
	Dir string
	// SegmentBytes is the size threshold at which the open segment is
	// rotated. Default 16 MiB.
	SegmentBytes int64
	// SyncEvery triggers a group commit as soon as this many appends are
	// pending; <= 1 means every append kicks an immediate fsync. Default 64.
	SyncEvery int
	// SyncInterval is the flusher's timer: the longest an acknowledged
	// append can wait for its fsync. Default 2ms.
	SyncInterval time.Duration
	// FirstLSN is the base of the first segment when the directory holds no
	// log yet — recovery passes checkpointLSN+1 so positional LSNs line up
	// with history that was checkpointed away. Default 1.
	FirstLSN uint64
	// Logger receives torn-tail warnings. Default log.Default().
	Logger *log.Logger
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 2 * time.Millisecond
	}
	if o.FirstLSN == 0 {
		o.FirstLSN = 1
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
}

type segment struct {
	base  uint64
	count int // records; live for the open segment, final for closed ones
	path  string
}

// Log is an open write-ahead log. Safe for concurrent use. Its mutex is
// the innermost class in the program's declared lock order (see the
// //lint:lockorder directive on ppdb.DB): nothing is acquired under it.
type Log struct {
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when durableLSN advances or the log wedges
	f          *os.File
	w          *bufio.Writer
	segs       []segment // segs[len-1] is the open segment
	size       int64     // bytes written to the open segment, header included
	nextLSN    uint64
	writtenLSN uint64 // highest LSN handed to the buffered writer
	durableLSN uint64 // highest LSN known fsynced
	pending    int    // appends since the last group commit
	syncErr    error  // sticky: the first flush/fsync failure wedges the log
	closed     bool

	kick      chan struct{} // nudges the flusher ahead of its timer
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.wal", base))
}

// Open scans dir, recovers the existing log (truncating a torn tail in the
// final segment), creates the first segment if the directory is empty, and
// starts the group-commit flusher.
func Open(opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	segs, err := scanDir(opts)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts: opts,
		segs: segs,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if len(l.segs) == 0 {
		f, err := createSegment(opts.Dir, opts.FirstLSN)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.segs = []segment{{base: opts.FirstLSN, path: segmentPath(opts.Dir, opts.FirstLSN)}}
		l.size = headerSize
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening %s: %w", last.path, err)
		}
		end, err := f.Seek(0, 2)
		if err != nil {
			//lint:ignore errflow the seek error is the diagnosis; close is cleanup
			f.Close()
			return nil, fmt.Errorf("wal: seeking %s: %w", last.path, err)
		}
		l.f = f
		l.size = end
	}
	tail := l.segs[len(l.segs)-1]
	l.nextLSN = tail.base + uint64(tail.count)
	l.writtenLSN = l.nextLSN - 1
	l.durableLSN = l.writtenLSN
	l.w = bufio.NewWriterSize(l.f, 256<<10)
	go l.flusher()
	return l, nil
}

// scanDir enumerates and validates the segments already on disk, in base
// LSN order, truncating a torn tail in the final one.
func scanDir(opts Options) ([]segment, error) {
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", opts.Dir, err)
	}
	var segs []segment
	for _, e := range entries {
		var base uint64
		if e.IsDir() || len(e.Name()) != 24 || filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "%020d.wal", &base); err != nil {
			continue
		}
		segs = append(segs, segment{base: base, path: filepath.Join(opts.Dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := range segs {
		s := &segs[i]
		f, err := os.Open(s.path)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s: %w", s.path, err)
		}
		st, err := f.Stat()
		var base uint64
		if err == nil {
			base, err = readHeader(f, s.path)
		}
		if err == nil && base != s.base {
			err = fmt.Errorf("wal: %s: header base LSN %d contradicts the file name", s.path, base)
		}
		if err != nil {
			//lint:ignore errflow the header error is the diagnosis; close is cleanup
			f.Close()
			return nil, err
		}
		count, goodEnd, scanErr := scanFrames(f, st.Size(), s.path, s.base, nil)
		//lint:ignore errflow the segment was only read; scanErr carries any failure
		f.Close()
		s.count = count
		if scanErr != nil {
			var torn *tornTailError
			if !errors.As(scanErr, &torn) || i != len(segs)-1 {
				// Undecodable bytes anywhere but the final segment's tail are
				// mid-log corruption; refusing to open beats silently skipping
				// acknowledged records.
				return nil, scanErr
			}
			opts.Logger.Print(kvlog.Line(
				"component", "wal", "event", "tail_truncated",
				"segment", s.path, "offset", goodEnd, "reason", torn.reason))
			mTailTruncated.Inc()
			if err := os.Truncate(s.path, goodEnd); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", s.path, err)
			}
			if err := fsyncPath(s.path); err != nil {
				return nil, err
			}
		}
		// Positional LSNs: a later segment must start at or after the end
		// of the one before it (gaps are legal — EnsureFloor creates them —
		// overlaps are not).
		if i > 0 && s.base < segs[i-1].base+uint64(segs[i-1].count) {
			return nil, fmt.Errorf("wal: %s: base LSN %d overlaps the previous segment", s.path, s.base)
		}
	}
	return segs, nil
}

// createSegment writes a fresh segment file with a header for base and
// fsyncs both the file and the directory.
func createSegment(dir string, base uint64) (*os.File, error) {
	path := segmentPath(dir, base)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	if _, err := f.Write(encodeHeader(base)); err != nil {
		//lint:ignore errflow the write error is the diagnosis; close is cleanup
		f.Close()
		return nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		//lint:ignore errflow the sync error is the diagnosis; close is cleanup
		f.Close()
		return nil, fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	if err := fsyncPath(dir); err != nil {
		//lint:ignore errflow the dir-fsync error is the diagnosis; close is cleanup
		f.Close()
		return nil, err
	}
	return f, nil
}

func fsyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: opening %s for fsync: %w", path, err)
	}
	//lint:ignore errflow the file is only read; Sync's error is the signal
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsyncing %s: %w", path, err)
	}
	return nil
}

// Append assigns the next LSN to rec, buffers its frame, and blocks until
// a group commit makes it durable (or the log wedges). The LSN order of
// concurrent Appends is the order they acquired the log's mutex — callers
// that need WAL order to match apply order must append while holding the
// lock that serializes the apply.
func (l *Log) Append(rec Record) (uint64, error) {
	lsn, err := l.AppendAsync(rec)
	if err != nil {
		return 0, err
	}
	return lsn, l.WaitDurable(lsn)
}

// AppendAsync assigns the next LSN to rec and buffers its frame without
// waiting for durability — the commit-wait half of group commit. Callers
// append under the lock that serializes their state mutation (so WAL order
// equals apply order), release it, and then WaitDurable before
// acknowledging.
func (l *Log) AppendAsync(rec Record) (uint64, error) {
	l.mu.Lock()
	lsn, err := l.appendLocked(rec)
	kickNow := err == nil && (l.opts.SyncEvery <= 1 || l.pending >= l.opts.SyncEvery)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if kickNow {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return lsn, nil
}

func (l *Log) appendLocked(rec Record) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	if l.size >= l.opts.SegmentBytes && l.segs[len(l.segs)-1].count > 0 {
		if err := l.rotateLocked(l.nextLSN); err != nil {
			return 0, err
		}
	}
	frame := appendFrame(make([]byte, 0, rec.frameSize()), rec)
	out, ferr := fault.WritePoint("wal.append", frame)
	if ferr != nil {
		if fault.IsCrash(ferr) {
			// A mid-append crash leaves a torn frame on disk; flush the
			// debris through so recovery meets it, then wedge the log.
			//lint:ignore errflow best-effort debris write while simulating a crash
			l.w.Write(out)
			//lint:ignore errflow best-effort debris flush while simulating a crash
			l.w.Flush()
			l.syncErr = ferr
			l.cond.Broadcast()
		}
		return 0, ferr
	}
	if _, err := l.w.Write(out); err != nil {
		l.failLocked(err)
		return 0, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.writtenLSN = lsn
	l.size += int64(len(out))
	l.segs[len(l.segs)-1].count++
	l.pending++
	mAppends.Inc()
	return lsn, nil
}

// WaitDurable blocks until lsn is covered by a group commit, returning the
// log's sticky error if it wedges first.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durableLSN < lsn && l.syncErr == nil && !l.closed {
		l.cond.Wait()
	}
	if l.durableLSN >= lsn {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return ErrClosed
}

// flusher is the group-commit goroutine: it fsyncs on the interval timer
// or as soon as an appender kicks it past SyncEvery pending records.
func (l *Log) flusher() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-l.kick:
		case <-ticker.C:
		}
		l.mu.Lock()
		l.syncLocked()
		l.mu.Unlock()
	}
}

// syncLocked flushes the buffered writer and fsyncs the open segment,
// advancing durableLSN to everything written so far. The fsync runs under
// the log mutex: appenders that arrive during it queue and are amortized
// into the next group commit.
func (l *Log) syncLocked() {
	if l.syncErr != nil || l.durableLSN >= l.writtenLSN {
		return
	}
	target := l.writtenLSN
	start := time.Now()
	if err := l.w.Flush(); err != nil {
		l.failLocked(err)
		return
	}
	if err := fault.Point("wal.fsync"); err != nil {
		// The flush above already reached the OS: after a simulated crash
		// here the record is on disk but never acknowledged, so recovery
		// may legitimately land one LSN past the last acknowledged append.
		l.failLocked(err)
		return
	}
	if err := l.f.Sync(); err != nil {
		l.failLocked(err)
		return
	}
	l.durableLSN = target
	l.pending = 0
	mFsyncs.Inc()
	mFsyncSeconds.Observe(time.Since(start).Seconds())
	l.cond.Broadcast()
}

func (l *Log) failLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = err
		mSyncErrors.Inc()
	}
	l.cond.Broadcast()
}

// rotateLocked closes the open segment (fsyncing its contents first) and
// starts a new one at base.
func (l *Log) rotateLocked(base uint64) error {
	if err := fault.Point("wal.rotate"); err != nil {
		if fault.IsCrash(err) {
			l.failLocked(err)
		}
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.failLocked(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.failLocked(err)
		return err
	}
	l.durableLSN = l.writtenLSN
	l.pending = 0
	l.cond.Broadcast()
	if err := l.f.Close(); err != nil {
		l.failLocked(err)
		return err
	}
	f, err := createSegment(l.opts.Dir, base)
	if err != nil {
		l.failLocked(err)
		return err
	}
	l.f = f
	l.w.Reset(f)
	l.segs = append(l.segs, segment{base: base, path: segmentPath(l.opts.Dir, base)})
	l.size = headerSize
	mRotations.Inc()
	return nil
}

// Sync forces an immediate group commit and reports the log's sticky
// error state.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.syncLocked()
	return l.syncErr
}

// EnsureFloor guarantees the next assigned LSN is greater than lsn, used
// when a checkpoint proves LSNs up to lsn were consumed but the log on
// disk ends earlier (e.g. the WAL directory was recreated). If the log is
// behind it rotates to a fresh segment based at lsn+1, leaving a legal gap.
func (l *Log) EnsureFloor(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.nextLSN > lsn {
		return nil
	}
	if cur := &l.segs[len(l.segs)-1]; cur.count == 0 {
		// The open segment is empty: replace it instead of leaving a
		// zero-record file behind.
		if err := l.w.Flush(); err != nil {
			l.failLocked(err)
			return err
		}
		if err := l.f.Close(); err != nil {
			l.failLocked(err)
			return err
		}
		if err := os.Remove(cur.path); err != nil {
			l.failLocked(err)
			return err
		}
		f, err := createSegment(l.opts.Dir, lsn+1)
		if err != nil {
			l.failLocked(err)
			return err
		}
		l.f = f
		l.w.Reset(f)
		l.segs[len(l.segs)-1] = segment{base: lsn + 1, path: segmentPath(l.opts.Dir, lsn+1)}
		l.size = headerSize
	} else if err := l.rotateLocked(lsn + 1); err != nil {
		return err
	}
	l.nextLSN = lsn + 1
	l.writtenLSN = lsn
	l.durableLSN = lsn
	return nil
}

// TruncateBefore removes whole segments whose records all have LSN <= lsn.
// The open segment is never removed. Checkpointing calls this with the
// LSN of the *previous* checkpoint so the retained tail still covers the
// fallback (.prev) snapshot generation.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	removed := false
	for len(l.segs) > 1 && l.segs[1].base <= lsn+1 {
		if err := fault.Point("wal.checkpoint.truncate"); err != nil {
			return err
		}
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: removing obsolete segment %s: %w", l.segs[0].path, err)
		}
		l.segs = l.segs[1:]
		mSegsRemoved.Inc()
		removed = true
	}
	if removed {
		return fsyncPath(l.opts.Dir)
	}
	return nil
}

// Replay reads every record with LSN > from, in LSN order, and hands it to
// fn. It is meant to run during recovery, before the log serves appends.
// Returns the number of records delivered; an fn error aborts the replay.
func (l *Log) Replay(from uint64, fn func(lsn uint64, rec Record) error) (int, error) {
	if err := fault.Point("wal.replay"); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.failLocked(err)
		l.mu.Unlock()
		return 0, err
	}
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	n := 0
	for i, s := range segs {
		if s.count == 0 || s.base+uint64(s.count)-1 <= from {
			continue
		}
		f, err := os.Open(s.path)
		if err != nil {
			return n, fmt.Errorf("wal: replay opening %s: %w", s.path, err)
		}
		st, err := f.Stat()
		if err == nil {
			_, err = readHeader(f, s.path)
		}
		if err != nil {
			//lint:ignore errflow the header error is the diagnosis; close is cleanup
			f.Close()
			return n, err
		}
		_, _, scanErr := scanFrames(f, st.Size(), s.path, s.base, func(lsn uint64, rec Record) error {
			if lsn <= from {
				return nil
			}
			if err := fn(lsn, rec); err != nil {
				return err
			}
			n++
			mReplayRecords.Inc()
			return nil
		})
		//lint:ignore errflow the segment was only read; scanErr carries any failure
		f.Close()
		if scanErr != nil {
			var torn *tornTailError
			if errors.As(scanErr, &torn) && i == len(segs)-1 {
				// Debris written after Open (e.g. an injected torn append)
				// ends the replay cleanly, mirroring Open's tail tolerance.
				break
			}
			return n, scanErr
		}
	}
	return n, nil
}

// LastLSN returns the highest LSN handed out (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the highest LSN known fsynced.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close stops the flusher, performs a final group commit, and closes the
// open segment. Safe to call more than once.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.syncLocked()
	l.closed = true
	l.cond.Broadcast()
	err := l.syncErr
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
