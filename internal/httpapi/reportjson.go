package httpapi

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ppdb"
	"repro/internal/privacy"
)

// The report writer serves the two bodies that carry per-provider
// violation rows — GET /v1/certify (*ppdb.Certification) and
// GET /v1/self/audit (core.ProviderReport) — without encoding/json. It
// appends, straight from the structs, exactly the bytes writeJSON's
// json.Encoder with SetIndent("", "  ") produces for the same value: field
// order, null for a nil slice and [] for an empty one, HTML-safe string
// escaping (invalid UTF-8 as \ufffd, U+2028/2029 escaped), the shortest
// round-trip float in 'f' or 'e' form, and the trailing newline.
// TestReportRoutesMatchEncodingJSON and FuzzReportJSON pin the equality,
// so a field added to any of these types must be added here too.
//
// encoding/json marshals the whole value by reflection into one buffer,
// copies it into a second while indenting, and only then writes. At 20k
// providers that is a ~110 MB body built twice per request. Here the
// body goes out in reportChunk pieces through one pooled buffer, and
// encoding stops at the first failed write.
//
// A certification's Providers array is nearly all of its body, and
// rendering it is CPU-bound, so on more than one core it is rendered
// ahead of the write on every core (providersAhead): blocks of certBlock
// consecutive providers go to GOMAXPROCS workers, and the handler
// goroutine writes the rendered blocks strictly in key order. A short
// array, GET /v1/self/audit and GOMAXPROCS 1 keep the serial path.

// reportChunk is how many encoded bytes the writer gathers before it
// hands them to the ResponseWriter.
const reportChunk = 64 << 10

// reportBufs recycles chunk buffers across requests, each with room for
// the row that crosses the chunk boundary. A buffer one huge string grew
// past maxPooledReportBuf is dropped instead of pinned.
var reportBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, reportChunk+reportChunk/4)
	return &b
}}

const maxPooledReportBuf = 4 * reportChunk

func getReportBuf() []byte { return (*reportBufs.Get().(*[]byte))[:0] }

func putReportBuf(b []byte) {
	if cap(b) <= maxPooledReportBuf {
		b = b[:0]
		reportBufs.Put(&b)
	}
}

// reportWriter is one response in progress: the encoded bytes not yet
// written, and the first error, after which nothing more is written. A
// block renderer has no w: its bytes are written by the handler, and it
// stops once stop is set.
type reportWriter struct {
	w    io.Writer
	buf  []byte
	err  error
	stop *atomic.Bool
}

// writeCertification answers GET /v1/certify with cert.
func writeCertification(w http.ResponseWriter, cert *ppdb.Certification) error {
	return writeReport(w, func(rw *reportWriter) { rw.certification(cert) })
}

// writeProviderReport answers GET /v1/self/audit with rep.
func writeProviderReport(w http.ResponseWriter, rep *core.ProviderReport) error {
	return writeReport(w, func(rw *reportWriter) { rw.providerReport(rep, 0) })
}

// writeReport sends the 200 status line, runs encode over a pooled
// buffer, and writes what is left with the encoder's trailing newline. It
// returns the first write or encoding error.
func writeReport(w http.ResponseWriter, encode func(*reportWriter)) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	rw := reportWriter{w: w, buf: getReportBuf()}
	encode(&rw)
	rw.buf = append(rw.buf, '\n')
	if rw.err == nil {
		_, rw.err = w.Write(rw.buf)
	}
	putReportBuf(rw.buf)
	return rw.err
}

// spill writes the buffer once it holds a full chunk, and reports whether
// encoding should go on. Every loop over rows calls it, so a client that
// hangs up stops the encoding within one chunk. A block renderer never
// writes: its block stays whole until the handler takes it, and it stops
// here once the handler has stopped.
//
// After each chunk the serial encoder yields its P. A large body keeps it
// busy for hundreds of milliseconds without blocking (loopback writes
// rarely fill the socket buffer), and a reader streaming the body keeps
// the other P busy, so on a small box the goroutines of other requests
// would wait for the runtime's 10 ms preemption tick. Measured on 2 vCPUs,
// the yield halves perfbench audit-policy's lookup_p50_ms at no
// throughput cost.
func (rw *reportWriter) spill() bool {
	switch {
	case rw.err != nil:
		return false
	case rw.w == nil:
		return !rw.stop.Load()
	case len(rw.buf) >= reportChunk:
		rw.flush()
		runtime.Gosched()
	}
	return rw.err == nil
}

// flush writes the buffered bytes.
func (rw *reportWriter) flush() {
	_, rw.err = rw.w.Write(rw.buf)
	rw.buf = rw.buf[:0]
}

// certBlock is how many consecutive providers one render-ahead block
// holds: about one reportChunk in the perfbench shape (~5.5 KB a
// provider).
const certBlock = 12

// providers writes the elements of a non-empty Providers array opened at
// depth-1 and reports whether encoding should go on. An array of two
// blocks or more is rendered ahead on every core; a shorter one, or one
// served at GOMAXPROCS 1, is written serially with no goroutine.
func (rw *reportWriter) providers(ps []core.ProviderReport, depth int) bool {
	if procs := runtime.GOMAXPROCS(0); procs > 1 && len(ps) >= 2*certBlock {
		return rw.providersAhead(ps, depth, procs)
	}
	return rw.providerRange(ps, 0, depth)
}

// providerRange writes ps as elements first, first+1, … of a Providers
// array and reports whether encoding should go on.
func (rw *reportWriter) providerRange(ps []core.ProviderReport, first, depth int) bool {
	for i := range ps {
		if !rw.spill() {
			return false
		}
		rw.elem(first+i, depth)
		if !rw.providerReport(&ps[i], depth) {
			return false
		}
	}
	return true
}

// renderAhead is one certification's Providers array in flight: block k
// holds providers [k·certBlock, (k+1)·certBlock) and is rendered into
// slots[k mod len(slots)], so at most len(slots) blocks are rendered and
// not yet written. todo hands block numbers to the workers in order; it
// buffers len(slots), as many as can be handed out and not yet taken, so
// the handler never blocks on it.
type renderAhead struct {
	ps    []core.ProviderReport
	depth int
	slots []renderSlot
	todo  chan int
	stop  atomic.Bool
}

// renderSlot is one block's place in the window: its bytes and first
// encoding error, and done, signalled once per block handed out (the
// buffer of one makes the signal never block).
type renderSlot struct {
	rw   reportWriter
	done chan struct{}
}

// providersAhead writes the elements of ps through a render-ahead
// pipeline. Workers render the blocks todo hands out; the handler waits
// for block k, copies it into its chunk buffer, and only then hands out
// block k+len(slots), whose slot it frees. A failed write or an encoding
// error in the block being written sets stop, which drops the blocks not
// started and abandons those in progress at their next spill, and every
// worker is joined before it returns. The bytes and the first error are
// the serial path's.
func (rw *reportWriter) providersAhead(ps []core.ProviderReport, depth, procs int) bool {
	blocks := (len(ps) + certBlock - 1) / certBlock
	ra := &renderAhead{ps: ps, depth: depth, slots: make([]renderSlot, min(2*procs, blocks))}
	window := len(ra.slots)
	ra.todo = make(chan int, window)
	for k := range ra.slots {
		ra.slots[k] = renderSlot{rw: reportWriter{buf: getReportBuf(), stop: &ra.stop}, done: make(chan struct{}, 1)}
		ra.todo <- k
	}
	var wg sync.WaitGroup
	for range min(procs, window) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ra.work()
		}()
	}
	for k := 0; k < blocks; k++ {
		s := &ra.slots[k%window]
		<-s.done
		if s.rw.err != nil {
			rw.err = s.rw.err
			break
		}
		if !rw.copyOut(s.rw.buf) {
			break
		}
		if next := k + window; next < blocks {
			ra.todo <- next
		}
	}
	ra.stop.Store(true)
	close(ra.todo)
	wg.Wait()
	for k := range ra.slots {
		putReportBuf(ra.slots[k].rw.buf)
	}
	return rw.err == nil
}

// work renders the blocks handed out until todo closes, skipping them
// once the handler has stopped.
func (ra *renderAhead) work() {
	for k := range ra.todo {
		if ra.stop.Load() {
			continue
		}
		s := &ra.slots[k%len(ra.slots)]
		lo := k * certBlock
		s.rw.buf = s.rw.buf[:0]
		s.rw.providerRange(ra.ps[lo:min(lo+certBlock, len(ra.ps))], lo, ra.depth)
		s.done <- struct{}{}
	}
}

// copyOut appends a rendered block to the chunk buffer, writing each
// chunk as it fills, so every Write but the last is exactly reportChunk
// bytes. It reports whether encoding should go on.
//
// Unlike spill it does not yield after a write: the handler already
// gives up its P whenever the next block is not rendered yet. Measured on
// 2 vCPUs (perfbench audit-policy, ten pairs each against the serial
// writer), the per-chunk yield here left the open-loop lookups' p50 at
// 2.2 ms where this reads 0.8 ms, at the same throughput.
func (rw *reportWriter) copyOut(b []byte) bool {
	for len(b) > 0 && rw.err == nil {
		if len(rw.buf) >= reportChunk {
			rw.flush()
			continue
		}
		n := min(len(b), reportChunk-len(rw.buf))
		rw.buf = append(rw.buf, b[:n]...)
		b = b[n:]
	}
	return rw.err == nil
}

// lineBreak is a newline followed by the indentation of the deepest line
// of a certification (depth 8); deeper lines extend it.
const lineBreak = "\n                "

// key starts one object member at depth: sep ('{' before the first
// member, ',' before the rest), the line break and the quoted name with
// its colon. Names are Go identifiers, so they need no escaping. It
// returns rw, so the member's value can follow on the same line.
func (rw *reportWriter) key(sep byte, depth int, name string) *reportWriter {
	rw.buf = append(rw.buf, sep)
	rw.line(depth)
	rw.buf = append(rw.buf, '"')
	rw.buf = append(rw.buf, name...)
	rw.buf = append(rw.buf, '"', ':', ' ')
	return rw
}

// line appends a newline and depth levels of indentation.
func (rw *reportWriter) line(depth int) {
	n := 1 + 2*depth
	if n <= len(lineBreak) {
		rw.buf = append(rw.buf, lineBreak[:n]...)
		return
	}
	rw.buf = append(rw.buf, lineBreak...)
	for n -= len(lineBreak); n > 0; n-- {
		rw.buf = append(rw.buf, ' ')
	}
}

// The structs written once per provider or per pair open their members
// with one append of a prefix built at init, not a key call: a *Members
// struct has one string field per member of the report struct it is
// named after, in the same order and of the same name, and its table
// holds one for every depth the struct opens at (a provider report opens
// at 0 on GET /v1/self/audit and at 3 in a certification, and its
// dimensions at up to 7).
type (
	providerMembers  struct{ Provider, Violated, Violation, Threshold, Defaults, Pairs string }
	pairMembers      struct{ Attribute, Purpose, Pref, Policy, ImplicitZero, Dims, Conf string }
	tupleMembers     struct{ Purpose, Visibility, Granularity, Retention string }
	dimensionMembers struct{ Dimension, PrefLevel, PolLevel, Overshoot, Severity string }
)

var (
	providerKeys  = memberKeys[providerMembers]()
	pairKeys      = memberKeys[pairMembers]()
	tupleKeys     = memberKeys[tupleMembers]()
	dimensionKeys = memberKeys[dimensionMembers]()
)

// memberKeys fills a K for each depth 0-7 a struct opens at: every field
// holds what key writes for the member of its name.
func memberKeys[K any]() (ks [8]K) {
	for depth := range ks {
		v := reflect.ValueOf(&ks[depth]).Elem()
		for i := range v.NumField() {
			sep := byte(',')
			if i == 0 {
				sep = '{'
			}
			var rw reportWriter
			v.Field(i).SetString(string(rw.key(sep, depth+1, v.Type().Field(i).Name).buf))
		}
	}
	return ks
}

// member appends a member prefix from one of the tables above and returns
// rw, so the member's value can follow.
func (rw *reportWriter) member(prefix string) *reportWriter {
	rw.buf = append(rw.buf, prefix...)
	return rw
}

// end closes, with c, an object or array opened at depth.
func (rw *reportWriter) end(depth int, c byte) {
	rw.line(depth)
	rw.buf = append(rw.buf, c)
}

// array starts a slice value of n elements: null for a nil slice, [] for
// an empty one. It reports whether elements follow.
func (rw *reportWriter) array(isNil bool, n int) bool {
	switch {
	case isNil:
		rw.buf = append(rw.buf, "null"...)
		return false
	case n == 0:
		rw.buf = append(rw.buf, '[', ']')
		return false
	}
	return true
}

// elem starts element i of an array whose elements sit at depth.
func (rw *reportWriter) elem(i, depth int) {
	if i == 0 {
		rw.buf = append(rw.buf, '[')
	} else {
		rw.buf = append(rw.buf, ',')
	}
	rw.line(depth)
}

func (rw *reportWriter) bool(v bool) {
	if v {
		rw.buf = append(rw.buf, "true"...)
	} else {
		rw.buf = append(rw.buf, "false"...)
	}
}

func (rw *reportWriter) int(v int) {
	rw.buf = strconv.AppendInt(rw.buf, int64(v), 10)
}

// float appends f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form unless 0 < |f| < 1e-6 or |f| ≥ 1e21, whose 'e'
// form drops the leading zero of a two-digit negative exponent. NaN and
// ±Inf have no JSON form; like encoding/json the writer refuses them.
func (rw *reportWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if rw.err == nil {
			rw.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if (abs > 0 && abs < 1e-6) || abs >= 1e21 {
		format = 'e'
	}
	rw.buf = strconv.AppendFloat(rw.buf, f, format, -1, 64)
	if format == 'e' {
		b := rw.buf
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			rw.buf = b[:n-1]
		}
	}
}

// jsonSafe marks the ASCII bytes a string carries unescaped: everything
// printable except the quote, the backslash and the HTML-sensitive <, >
// and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// string appends s quoted and escaped as encoding/json's HTML-safe
// encoder writes it.
func (rw *reportWriter) string(s string) {
	b := append(rw.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control bytes and <, >, &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			// Valid JSON, but line terminators to JavaScript.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	rw.buf = append(b, '"')
}

// certification writes the GET /v1/certify body.
func (rw *reportWriter) certification(c *ppdb.Certification) {
	at, err := c.At.MarshalJSON()
	if err != nil {
		rw.err = err
		return
	}
	rw.key('{', 1, "At")
	rw.buf = append(rw.buf, at...)
	rw.key(',', 1, "PolicyName").string(c.PolicyName)
	rw.key(',', 1, "Alpha").float(c.Alpha)
	rw.key(',', 1, "Report")
	if !rw.populationReport(&c.Report, 1) {
		return
	}
	rw.key(',', 1, "IsAlphaPPDB").bool(c.IsAlphaPPDB)
	rw.key(',', 1, "MinAlpha").float(c.MinAlpha)
	rw.key(',', 1, "WouldDefault")
	if rw.array(c.WouldDefault == nil, len(c.WouldDefault)) {
		for i, name := range c.WouldDefault {
			if !rw.spill() {
				return
			}
			rw.elem(i, 2)
			rw.string(name)
		}
		rw.end(1, ']')
	}
	rw.end(0, '}')
}

// populationReport writes a core.PopulationReport opened at depth and
// reports whether encoding should go on.
func (rw *reportWriter) populationReport(r *core.PopulationReport, depth int) bool {
	in := depth + 1
	rw.key('{', in, "N").int(r.N)
	rw.key(',', in, "ViolatedCount").int(r.ViolatedCount)
	rw.key(',', in, "DefaultCount").int(r.DefaultCount)
	rw.key(',', in, "TotalViolations").float(r.TotalViolations)
	rw.key(',', in, "PW").float(r.PW)
	rw.key(',', in, "PDefault").float(r.PDefault)
	rw.key(',', in, "Providers")
	if rw.array(r.Providers == nil, len(r.Providers)) {
		if !rw.providers(r.Providers, in+1) {
			return false
		}
		rw.end(in, ']')
	}
	rw.end(depth, '}')
	return true
}

// providerReport writes a core.ProviderReport opened at depth and reports
// whether encoding should go on.
func (rw *reportWriter) providerReport(r *core.ProviderReport, depth int) bool {
	in, k := depth+1, &providerKeys[depth]
	rw.member(k.Provider).string(r.Provider)
	rw.member(k.Violated).bool(r.Violated)
	rw.member(k.Violation).float(r.Violation)
	rw.member(k.Threshold).float(r.Threshold)
	rw.member(k.Defaults).bool(r.Defaults)
	rw.member(k.Pairs)
	if rw.array(r.Pairs == nil, len(r.Pairs)) {
		for i := range r.Pairs {
			if !rw.spill() {
				return false
			}
			rw.elem(i, in+1)
			rw.pairConflict(&r.Pairs[i], in+1)
		}
		rw.end(in, ']')
	}
	rw.end(depth, '}')
	return true
}

// pairConflict writes a core.PairConflict opened at depth.
func (rw *reportWriter) pairConflict(p *core.PairConflict, depth int) {
	in, k := depth+1, &pairKeys[depth]
	rw.member(k.Attribute).string(p.Attribute)
	rw.member(k.Purpose).string(string(p.Purpose))
	rw.member(k.Pref).tuple(p.Pref, in)
	rw.member(k.Policy).tuple(p.Policy, in)
	rw.member(k.ImplicitZero).bool(p.ImplicitZero)
	rw.member(k.Dims)
	if rw.array(p.Dims == nil, len(p.Dims)) {
		for i := range p.Dims {
			rw.elem(i, in+1)
			rw.dimension(&p.Dims[i], in+1)
		}
		rw.end(in, ']')
	}
	rw.member(k.Conf).float(p.Conf)
	rw.end(depth, '}')
}

// tuple writes a privacy.Tuple opened at depth.
func (rw *reportWriter) tuple(t privacy.Tuple, depth int) {
	k := &tupleKeys[depth]
	rw.member(k.Purpose).string(string(t.Purpose))
	rw.member(k.Visibility).int(int(t.Visibility))
	rw.member(k.Granularity).int(int(t.Granularity))
	rw.member(k.Retention).int(int(t.Retention))
	rw.end(depth, '}')
}

// dimension writes a core.DimensionViolation opened at depth.
func (rw *reportWriter) dimension(d *core.DimensionViolation, depth int) {
	k := &dimensionKeys[depth]
	rw.member(k.Dimension).int(int(d.Dimension))
	rw.member(k.PrefLevel).int(int(d.PrefLevel))
	rw.member(k.PolLevel).int(int(d.PolLevel))
	rw.member(k.Overshoot).int(d.Overshoot)
	rw.member(k.Severity).float(d.Severity)
	rw.end(depth, '}')
}
