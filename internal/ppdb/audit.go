package ppdb

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/privacy"
)

// AccessRecord is one entry of the audit trail: an access attempt with its
// disposition. The audit framework is the verification step Sec. 10 calls
// the next move toward trust ("verification via an audit framework to
// ensure that the house is adhering to its stated privacy policies").
type AccessRecord struct {
	At         time.Time
	Requester  string
	Purpose    privacy.Purpose
	Visibility privacy.Level
	SQL        string
	Allowed    bool
	// Reason is the denial reason when Allowed is false.
	Reason string
}

// auditBlockSize is the encoded size at which the trail's open block is
// sealed. A record is never split, so a block holds whole records and may
// exceed this by at most one record.
const auditBlockSize = 64 << 10

// Audit is an append-only access log. Safe for concurrent use.
//
// Records are held encoded, in blocks: the open block takes appends, and
// once it reaches auditBlockSize it is deflated and sealed. Requesters
// repeat a handful of statement shapes, so a sealed block keeps a record
// in a few bytes. Each sealed block also keeps its record count and a
// tally of its requesters, so a page — with or without a requester
// prefix — inflates only the blocks its records sit in. Sealed blocks are
// immutable and every seal starts a fresh open buffer, so readers decode
// a snapshot of the trail after releasing the lock.
type Audit struct {
	mu     sync.RWMutex
	sealed []auditBlock
	maxRaw int    // the largest encoded size of a sealed block
	open   []byte // encoded records of the open block
	openN  int    // records in open
	n      int    // records in the whole trail
	// locs interns the locations of record instants; a record stores the
	// index, so it reads back in the very location it was written in.
	locs []*time.Location
}

// auditBlock is one sealed block: its records deflated, their count and
// encoded size, and how many of them each requester made.
type auditBlock struct {
	data  []byte
	n     int
	raw   int
	tally []requesterTally
}

// requesterTally is the number of records one requester made in a block.
type requesterTally struct {
	requester string
	n         int
}

// matches counts the block's records whose requester starts with prefix.
func (b *auditBlock) matches(prefix string) int {
	m := 0
	for _, t := range b.tally {
		if strings.HasPrefix(t.requester, prefix) {
			m += t.n
		}
	}
	return m
}

// deflaters recycles block compressors across seals, and across the
// stores in one process, so a seal allocates little beyond the sealed
// bytes; a compressor holds ~0.8 MB of tables, too much to keep per store.
var deflaters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		panic(err) // the level is a valid constant
	}
	return w
}}

func newAudit() *Audit { return &Audit{} }

func (a *Audit) record(at time.Time, req EnforcedQuery, allowed bool, reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.open = appendAccess(a.open, &AccessRecord{
		At:         at,
		Requester:  req.Requester,
		Purpose:    req.Purpose.Normalize(),
		Visibility: req.Visibility,
		SQL:        req.SQL,
		Allowed:    allowed,
		Reason:     reason,
	}, a.locIndex(at.Location()))
	a.openN++
	a.n++
	if len(a.open) >= auditBlockSize {
		a.seal()
	}
}

// locIndex interns loc. Callers hold a.mu exclusively.
func (a *Audit) locIndex(loc *time.Location) int {
	for i, l := range a.locs {
		if l == loc {
			return i
		}
	}
	a.locs = append(a.locs, loc)
	return len(a.locs) - 1
}

// seal deflates the open block onto the sealed list and starts a fresh
// one; readers may still hold the old buffer. Callers hold a.mu
// exclusively.
func (a *Audit) seal() {
	var buf bytes.Buffer
	zw := deflaters.Get().(*flate.Writer)
	zw.Reset(&buf)
	//lint:ignore errflow deflating into a bytes.Buffer cannot fail: the buffer never refuses a write
	_, _ = zw.Write(a.open)
	//lint:ignore errflow as above: Close only flushes into the buffer
	_ = zw.Close()
	deflaters.Put(zw)
	a.sealed = append(a.sealed, auditBlock{
		data: bytes.Clone(buf.Bytes()), n: a.openN, raw: len(a.open), tally: tally(a.open),
	})
	a.maxRaw = max(a.maxRaw, len(a.open))
	a.open, a.openN = make([]byte, 0, auditBlockSize), 0
}

// tally counts the encoded records in raw per requester, in order of
// first appearance.
func tally(raw []byte) []requesterTally {
	var t []requesterTally
	idx := make(map[string]int)
	each(raw, func(r *encodedAccess) bool {
		i, ok := idx[string(r.requester)]
		if !ok {
			name := string(r.requester)
			i = len(t)
			idx[name] = i
			t = append(t, requesterTally{requester: name})
		}
		t[i].n++
		return true
	})
	return t
}

// auditView is a snapshot of the trail: the sealed blocks, the open
// block's records and the interned locations as of one instant.
type auditView struct {
	sealed []auditBlock
	maxRaw int
	open   []byte
	n      int
	locs   []*time.Location
}

func (a *Audit) view() auditView {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return auditView{sealed: a.sealed, maxRaw: a.maxRaw, open: a.open, n: a.n, locs: a.locs}
}

// blocks is the number of blocks in the view; the last is the open one.
func (v *auditView) blocks() int { return len(v.sealed) + 1 }

// inflater reads a view's blocks through one reader and one buffer.
type inflater struct {
	v   *auditView
	zr  io.ReadCloser
	src bytes.Reader
	buf []byte
}

// block returns block b's encoded records; they stay valid until the next
// call.
func (f *inflater) block(b int) []byte {
	if b == len(f.v.sealed) {
		return f.v.open
	}
	sb := &f.v.sealed[b]
	f.src.Reset(sb.data)
	if f.zr == nil {
		f.zr = flate.NewReader(&f.src)
		f.buf = make([]byte, f.v.maxRaw)
	} else if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		panic("ppdb: audit block: " + err.Error())
	}
	raw := f.buf[:sb.raw]
	if _, err := io.ReadFull(f.zr, raw); err != nil {
		panic("ppdb: audit block: " + err.Error())
	}
	return raw
}

// each visits the encoded records in raw in order until visit returns
// false. The record passed to visit is reused: its byte fields alias raw.
func each(raw []byte, visit func(*encodedAccess) bool) {
	var rec encodedAccess
	for len(raw) > 0 {
		raw = rec.decode(raw)
		if !visit(&rec) {
			return
		}
	}
}

// all visits every record of the view in log order.
func (v *auditView) all(visit func(*encodedAccess)) {
	f := inflater{v: v}
	for b := 0; b < v.blocks(); b++ {
		each(f.block(b), func(r *encodedAccess) bool {
			visit(r)
			return true
		})
	}
}

// Records returns a copy of the full trail.
func (a *Audit) Records() []AccessRecord {
	v := a.view()
	out := make([]AccessRecord, 0, v.n)
	v.all(func(r *encodedAccess) { out = append(out, r.access(v.locs)) })
	return out
}

// Page returns the number of records whose Requester starts with prefix
// (every record when prefix is empty) plus one page of them in log order —
// the bounded listing the paginated HTTP API serves. offset past the end
// yields an empty page; limit <= 0 yields no rows (count-only). Matches
// are counted from the blocks' requester tallies, not copied, and only the
// blocks holding the page's records are inflated.
func (a *Audit) Page(prefix string, offset, limit int) (int, []AccessRecord) {
	v := a.view()
	offset = max(offset, 0)
	match := func(r *encodedAccess) bool {
		return len(r.requester) >= len(prefix) && string(r.requester[:len(prefix)]) == prefix
	}
	// Count the matches block by block — the open block's off its records —
	// noting the block that holds match number offset.
	total, from, skip := 0, -1, 0
	for b := 0; b < v.blocks(); b++ {
		c := 0
		if b < len(v.sealed) {
			c = v.sealed[b].matches(prefix)
		} else {
			each(v.open, func(r *encodedAccess) bool {
				if match(r) {
					c++
				}
				return true
			})
		}
		if from < 0 && offset < total+c {
			from, skip = b, offset-total
		}
		total += c
	}
	if from < 0 || limit <= 0 {
		return total, nil
	}
	var page []AccessRecord
	f := inflater{v: &v}
	for b := from; b < v.blocks() && len(page) < limit; b++ {
		if b < len(v.sealed) && v.sealed[b].matches(prefix) == 0 {
			continue
		}
		each(f.block(b), func(r *encodedAccess) bool {
			if !match(r) {
				return true
			}
			if skip > 0 {
				skip--
				return true
			}
			page = append(page, r.access(v.locs))
			return len(page) < limit
		})
	}
	return total, page
}

// Len returns the number of recorded accesses.
func (a *Audit) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.n
}

// Denied returns only the rejected accesses — attempted uses beyond the
// stated policy.
func (a *Audit) Denied() []AccessRecord {
	v := a.view()
	var out []AccessRecord
	v.all(func(r *encodedAccess) {
		if !r.allowed {
			out = append(out, r.access(v.locs))
		}
	})
	return out
}

// ByPurpose tallies accesses per purpose.
func (a *Audit) ByPurpose() map[privacy.Purpose]int {
	out := map[privacy.Purpose]int{}
	v := a.view()
	v.all(func(r *encodedAccess) { out[privacy.Purpose(r.purpose)]++ })
	return out
}

// appendAccess appends r's encoding to b: the instant as Unix seconds,
// nanoseconds and the interned location index loc, then the fields in
// declaration order, strings length-prefixed and byte for byte.
func appendAccess(b []byte, r *AccessRecord, loc int) []byte {
	b = binary.AppendVarint(b, r.At.Unix())
	b = binary.AppendUvarint(b, uint64(r.At.Nanosecond()))
	b = binary.AppendUvarint(b, uint64(loc))
	b = appendBytes(b, r.Requester)
	b = appendBytes(b, string(r.Purpose))
	b = binary.AppendVarint(b, int64(r.Visibility))
	b = appendBytes(b, r.SQL)
	allowed := byte(0)
	if r.Allowed {
		allowed = 1
	}
	b = append(b, allowed)
	return appendBytes(b, r.Reason)
}

func appendBytes(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// encodedAccess is one decoded record whose strings still alias its block.
type encodedAccess struct {
	sec, nsec, loc, vis             int64
	requester, purpose, sql, reason []byte
	allowed                         bool
}

// decode reads one record off the front of b and returns the rest. The
// trail decodes only what appendAccess wrote, so a short or malformed
// record is a broken invariant.
func (r *encodedAccess) decode(b []byte) []byte {
	d := auditDecoder{b: b}
	r.sec, r.nsec, r.loc = d.varint(), d.uvarint(), d.uvarint()
	r.requester, r.purpose = d.bytes(), d.bytes()
	r.vis = d.varint()
	r.sql = d.bytes()
	r.allowed = d.uvarint() == 1
	r.reason = d.bytes()
	return d.b
}

// auditDecoder reads appendAccess's fields off the front of b.
type auditDecoder struct{ b []byte }

func (d *auditDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		panic("ppdb: audit record truncated")
	}
	d.b = d.b[n:]
	return v
}

func (d *auditDecoder) uvarint() int64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		panic("ppdb: audit record truncated")
	}
	d.b = d.b[n:]
	return int64(v)
}

func (d *auditDecoder) bytes() []byte {
	l := d.uvarint()
	if l < 0 || l > int64(len(d.b)) {
		panic("ppdb: audit record truncated")
	}
	s := d.b[:l:l]
	d.b = d.b[l:]
	return s
}

// access materializes the record, resolving its location in locs.
func (r *encodedAccess) access(locs []*time.Location) AccessRecord {
	return AccessRecord{
		At:         time.Unix(r.sec, r.nsec).In(locs[r.loc]),
		Requester:  string(r.requester),
		Purpose:    privacy.Purpose(r.purpose),
		Visibility: privacy.Level(r.vis),
		SQL:        string(r.sql),
		Allowed:    r.allowed,
		Reason:     string(r.reason),
	}
}
