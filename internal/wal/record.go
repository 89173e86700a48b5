package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk layout (DESIGN.md §14).
//
// A segment file is a 16-byte header followed by a run of frames:
//
//	header:  u32 magic "PWAL" | u16 format version | u16 reserved | u64 base LSN
//	frame:   u32 payload length | u32 CRC32C(payload) | payload
//	payload: u8 record type | record body
//
// All integers are little-endian. The CRC covers the payload only (type
// byte + body), computed with the Castagnoli polynomial. A record's LSN is
// positional: the segment's base LSN plus its zero-based index in the
// segment — nothing in the frame repeats it, so a frame can never claim an
// LSN its position contradicts.
const (
	magic         = 0x4C415750 // "PWAL" read little-endian
	formatVersion = 1
	headerSize    = 16
	frameOverhead = 8

	// MaxRecordBytes bounds a single payload. A length field above it is
	// treated as tail garbage, not an instruction to allocate gigabytes.
	MaxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one logical WAL entry: an application-chosen type byte and an
// opaque body. The WAL never interprets either.
type Record struct {
	Type byte
	Data []byte
}

func (r Record) frameSize() int { return frameOverhead + 1 + len(r.Data) }

// appendFrame encodes rec as a frame onto buf and returns the extended
// slice.
func appendFrame(buf []byte, rec Record) []byte {
	n := 1 + len(rec.Data)
	crc := crc32.Update(0, castagnoli, []byte{rec.Type})
	crc = crc32.Update(crc, castagnoli, rec.Data)
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, rec.Type)
	buf = append(buf, rec.Data...)
	return buf
}

// encodeHeader renders a segment header for the given base LSN.
func encodeHeader(base uint64) []byte {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], base)
	return hdr
}

// readHeader reads and validates a segment header, returning its base LSN.
func readHeader(r io.Reader, path string) (uint64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %s: reading segment header: %w", path, err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != magic {
		return 0, fmt.Errorf("wal: %s: bad magic %#x", path, got)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVersion {
		return 0, fmt.Errorf("wal: %s: unsupported format version %d", path, v)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// errTornTail marks the point where a segment stops being decodable:
// a short frame header, a payload cut off mid-record, an implausible
// length, or a CRC mismatch. In the last segment this is the expected
// debris of a crash and recovery truncates it away; in any earlier
// segment it is mid-log corruption and Open fails loudly.
type tornTailError struct {
	path   string
	offset int64
	reason string
}

func (e *tornTailError) Error() string {
	return fmt.Sprintf("wal: %s: undecodable record at offset %d: %s", e.path, e.offset, e.reason)
}

// scanFrames iterates the frames of a segment body (reader positioned just
// past the header) of a segment file size bytes long. For every decodable
// record it calls fn with the record's positional LSN. It returns the
// number of records decoded and the byte offset (from the start of the
// file) of the first byte past the last good frame. A clean EOF returns a
// nil error; undecodable bytes return a *tornTailError — a length that
// runs past the end of the file among them, caught before its payload is
// allocated; an fn error aborts the scan and is returned as-is.
func scanFrames(r io.Reader, size int64, path string, base uint64, fn func(lsn uint64, rec Record) error) (count int, goodEnd int64, err error) {
	goodEnd = headerSize
	var hdr [frameOverhead]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return count, goodEnd, nil // clean end of segment
			}
			return count, goodEnd, &tornTailError{path, goodEnd, "short frame header"}
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > MaxRecordBytes {
			return count, goodEnd, &tornTailError{path, goodEnd, fmt.Sprintf("implausible payload length %d", n)}
		}
		if int64(n) > size-goodEnd-frameOverhead {
			return count, goodEnd, &tornTailError{path, goodEnd, fmt.Sprintf("payload length %d runs past the end of the file", n)}
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return count, goodEnd, &tornTailError{path, goodEnd, "payload cut short"}
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return count, goodEnd, &tornTailError{path, goodEnd, fmt.Sprintf("CRC mismatch (stored %#x, computed %#x)", want, got)}
		}
		rec := Record{Type: payload[0], Data: payload[1:]}
		if fn != nil {
			if err := fn(base+uint64(count), rec); err != nil {
				return count, goodEnd, err
			}
		}
		count++
		goodEnd += int64(frameOverhead) + int64(n)
	}
}
