package httpapi

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
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

// reportWriter is one response in progress: the encoded bytes not yet
// written, and the first error, after which nothing more is written.
type reportWriter struct {
	w   io.Writer
	buf []byte
	err error
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
	bp := reportBufs.Get().(*[]byte)
	rw := reportWriter{w: w, buf: (*bp)[:0]}
	encode(&rw)
	rw.buf = append(rw.buf, '\n')
	if rw.err == nil {
		_, rw.err = w.Write(rw.buf)
	}
	if cap(rw.buf) <= maxPooledReportBuf {
		*bp = rw.buf[:0]
		reportBufs.Put(bp)
	}
	return rw.err
}

// spill writes the buffer once it holds a full chunk, and reports whether
// encoding should go on. Every loop over rows calls it, so a client that
// hangs up stops the encoding within one chunk.
//
// After each chunk the encoder yields its P. A large body keeps it busy
// for hundreds of milliseconds without blocking (loopback writes rarely
// fill the socket buffer), and a reader streaming the body keeps the
// other P busy, so on a small box the goroutines of other requests would
// wait for the runtime's 10 ms preemption tick. Measured on 2 vCPUs, the
// yield halves perfbench audit-policy's lookup_p50_ms at no throughput
// cost.
func (rw *reportWriter) spill() bool {
	if rw.err == nil && len(rw.buf) >= reportChunk {
		_, rw.err = rw.w.Write(rw.buf)
		rw.buf = rw.buf[:0]
		runtime.Gosched()
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
		for i := range r.Providers {
			if !rw.spill() {
				return false
			}
			rw.elem(i, in+1)
			if !rw.providerReport(&r.Providers[i], in+1) {
				return false
			}
		}
		rw.end(in, ']')
	}
	rw.end(depth, '}')
	return true
}

// providerReport writes a core.ProviderReport opened at depth and reports
// whether encoding should go on.
func (rw *reportWriter) providerReport(r *core.ProviderReport, depth int) bool {
	in := depth + 1
	rw.key('{', in, "Provider").string(r.Provider)
	rw.key(',', in, "Violated").bool(r.Violated)
	rw.key(',', in, "Violation").float(r.Violation)
	rw.key(',', in, "Threshold").float(r.Threshold)
	rw.key(',', in, "Defaults").bool(r.Defaults)
	rw.key(',', in, "Pairs")
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
	in := depth + 1
	rw.key('{', in, "Attribute").string(p.Attribute)
	rw.key(',', in, "Purpose").string(string(p.Purpose))
	rw.key(',', in, "Pref").tuple(p.Pref, in)
	rw.key(',', in, "Policy").tuple(p.Policy, in)
	rw.key(',', in, "ImplicitZero").bool(p.ImplicitZero)
	rw.key(',', in, "Dims")
	if rw.array(p.Dims == nil, len(p.Dims)) {
		for i := range p.Dims {
			rw.elem(i, in+1)
			rw.dimension(&p.Dims[i], in+1)
		}
		rw.end(in, ']')
	}
	rw.key(',', in, "Conf").float(p.Conf)
	rw.end(depth, '}')
}

// tuple writes a privacy.Tuple opened at depth.
func (rw *reportWriter) tuple(t privacy.Tuple, depth int) {
	in := depth + 1
	rw.key('{', in, "Purpose").string(string(t.Purpose))
	rw.key(',', in, "Visibility").int(int(t.Visibility))
	rw.key(',', in, "Granularity").int(int(t.Granularity))
	rw.key(',', in, "Retention").int(int(t.Retention))
	rw.end(depth, '}')
}

// dimension writes a core.DimensionViolation opened at depth.
func (rw *reportWriter) dimension(d *core.DimensionViolation, depth int) {
	in := depth + 1
	rw.key('{', in, "Dimension").int(int(d.Dimension))
	rw.key(',', in, "PrefLevel").int(int(d.PrefLevel))
	rw.key(',', in, "PolLevel").int(int(d.PolLevel))
	rw.key(',', in, "Overshoot").int(d.Overshoot)
	rw.key(',', in, "Severity").float(d.Severity)
	rw.end(depth, '}')
}
