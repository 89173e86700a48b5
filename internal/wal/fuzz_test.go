package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"os"
	"testing"
	"time"
)

// FuzzWALSegment opens a log whose only segment is a valid header followed
// by the fuzzed bytes (or, with rawHeader, whose whole segment file is the
// fuzzed bytes). Open and Replay must not panic. Open may refuse only a
// bad header; past a valid one it keeps the longest run of decodable
// frames: the replayed records re-encode to a prefix of the input, the
// file is truncated to exactly that prefix, and a record appended after
// the reopen replays as the next one.
func FuzzWALSegment(f *testing.F) {
	one := appendFrame(nil, Record{Type: 1, Data: []byte(`provider "ann" threshold 5 {}`)})
	two := appendFrame(bytes.Clone(one), Record{Type: 5, Data: []byte(`{"now":"2011-01-01T00:00:00Z"}`)})
	f.Add(false, two)              // two good frames
	f.Add(false, two[:len(two)-3]) // the second frame torn
	over := binary.LittleEndian.AppendUint32(bytes.Clone(one), MaxRecordBytes+1)
	f.Add(false, append(over, 0, 0, 0, 0, 7)) // a length over MaxRecordBytes
	flipped := bytes.Clone(two)
	flipped[len(one)+4] ^= 0x40 // a CRC byte of the second frame
	f.Add(false, flipped)
	f.Add(true, append(encodeHeader(1), two...)) // the header fuzzed too
	f.Add(true, append(encodeHeader(2), one...)) // a base the file name contradicts

	f.Fuzz(func(t *testing.T, rawHeader bool, data []byte) {
		const base = 1
		file := data
		if !rawHeader {
			file = append(encodeHeader(base), data...)
		}
		dir := t.TempDir()
		path := segmentPath(dir, base)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir, SyncEvery: 1, SyncInterval: time.Millisecond, Logger: log.New(io.Discard, "", 0)}
		l, err := Open(opts)
		if err != nil {
			if !rawHeader {
				t.Fatalf("Open refused frames behind a valid header: %v", err)
			}
			return
		}
		recs := fuzzReplay(t, l)
		var frames []byte
		for _, r := range recs {
			frames = appendFrame(frames, r)
		}
		if !bytes.HasPrefix(file[headerSize:], frames) {
			t.Fatalf("the %d replayed records do not re-encode to a prefix of the segment", len(recs))
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, file[:headerSize+len(frames)]) {
			t.Fatalf("segment holds %d bytes, want the %d-byte decodable prefix", len(onDisk), headerSize+len(frames))
		}

		next := Record{Type: 9, Data: []byte("appended after reopen")}
		lsn, err := l.Append(next)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(base + len(recs)); lsn != want {
			t.Fatalf("appended record got LSN %d, want %d", lsn, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		again := fuzzReplay(t, l2)
		if len(again) != len(recs)+1 {
			t.Fatalf("reopened log replays %d records, want %d", len(again), len(recs)+1)
		}
		for i, r := range append(recs, next) {
			if again[i].Type != r.Type || !bytes.Equal(again[i].Data, r.Data) {
				t.Fatalf("record %d came back as type %d %q, want type %d %q", i+1, again[i].Type, again[i].Data, r.Type, r.Data)
			}
		}
	})
}

// fuzzReplay replays every record of l, checking that LSNs are positional.
func fuzzReplay(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	n, err := l.Replay(0, func(lsn uint64, rec Record) error {
		if want := uint64(1 + len(recs)); lsn != want {
			t.Fatalf("replayed LSN %d, want %d", lsn, want)
		}
		recs = append(recs, Record{Type: rec.Type, Data: bytes.Clone(rec.Data)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(recs))
	}
	return recs
}
