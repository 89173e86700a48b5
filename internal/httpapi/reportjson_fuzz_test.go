package httpapi

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ppdb"
	"repro/internal/privacy"
)

// edgeFloats are the values where encoding/json's float format changes
// shape: signed zeros, both sides of the 1e-6 and 1e21 cut-overs between
// 'f' and 'e' form, the smallest subnormal and the largest finite value
// (privacy.NoDefaultThreshold).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.2345e22,
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3,
	privacy.NoDefaultThreshold, -math.MaxFloat64,
}

// fuzzReader turns fuzz bytes into report values; past the end it reads
// zeros, so every input decodes.
type fuzzReader struct{ b []byte }

func (f *fuzzReader) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

// name reads up to 15 raw bytes: invalid UTF-8, control bytes, <>& and
// U+2028/2029 all come through as-is, as quoted DSL names keep them.
func (f *fuzzReader) name() string {
	n := min(int(f.byte()%16), len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// float reads an edge value, a short decimal, or eight raw bytes as
// IEEE-754 bits (which may be NaN or ±Inf).
func (f *fuzzReader) float() float64 {
	c := f.byte()
	switch {
	case int(c) < len(edgeFloats):
		return edgeFloats[c]
	case c < 128:
		return float64(int16(uint16(f.byte())<<8|uint16(f.byte()))) / 100
	}
	var u uint64
	for range 8 {
		u = u<<8 | uint64(f.byte())
	}
	return math.Float64frombits(u)
}

func (f *fuzzReader) int() int { return int(int8(f.byte())) }

// count reads a slice shape: -1 for nil, else a length of 0 to 3.
func (f *fuzzReader) count() int { return int(f.byte()%5) - 1 }

func (f *fuzzReader) tuple() privacy.Tuple {
	return privacy.Tuple{Purpose: privacy.Purpose(f.name()),
		Visibility: privacy.Level(f.int()), Granularity: privacy.Level(f.int()), Retention: privacy.Level(f.int())}
}

func (f *fuzzReader) provider() core.ProviderReport {
	r := core.ProviderReport{Provider: f.name(), Violated: f.byte()&1 == 1,
		Violation: f.float(), Threshold: f.float(), Defaults: f.byte()&1 == 1}
	if n := f.count(); n >= 0 {
		r.Pairs = make([]core.PairConflict, n)
	}
	for i := range r.Pairs {
		p := &r.Pairs[i]
		p.Attribute, p.Purpose = f.name(), privacy.Purpose(f.name())
		p.Pref, p.Policy = f.tuple(), f.tuple()
		p.ImplicitZero = f.byte()&1 == 1
		if n := f.count(); n >= 0 {
			p.Dims = make([]core.DimensionViolation, n)
		}
		for j := range p.Dims {
			p.Dims[j] = core.DimensionViolation{Dimension: privacy.Dimension(f.int()),
				PrefLevel: privacy.Level(f.int()), PolLevel: privacy.Level(f.int()),
				Overshoot: f.int(), Severity: f.float()}
		}
		p.Conf = f.float()
	}
	return r
}

func (f *fuzzReader) certification() *ppdb.Certification {
	zone := time.FixedZone("", f.int()*900)
	c := &ppdb.Certification{
		At:         time.Unix(int64(f.int())*3e9, int64(f.byte())*1e6).In(zone),
		PolicyName: f.name(),
		Alpha:      f.float(),
		Report: core.PopulationReport{N: f.int(), ViolatedCount: f.int(), DefaultCount: f.int(),
			TotalViolations: f.float(), PW: f.float(), PDefault: f.float()},
		IsAlphaPPDB: f.byte()&1 == 1,
		MinAlpha:    f.float(),
	}
	if n := f.count(); n >= 0 {
		c.Report.Providers = make([]core.ProviderReport, n)
	}
	for i := range c.Report.Providers {
		c.Report.Providers[i] = f.provider()
	}
	if n := f.count(); n >= 0 {
		c.WouldDefault = make([]string, n)
	}
	for i := range c.WouldDefault {
		c.WouldDefault[i] = f.name()
	}
	// An odd last byte repeats the providers past two blocks, so the
	// certification goes through the render-ahead pipeline. It is read
	// last, so a seed that ends before it decodes as it always has.
	if ps := c.Report.Providers; len(ps) > 0 && f.byte()&1 == 1 {
		for len(c.Report.Providers) <= 2*certBlock {
			c.Report.Providers = append(c.Report.Providers, ps...)
		}
	}
	return c
}

// FuzzReportJSON builds certifications and provider reports from
// arbitrary bytes and requires the report writer to produce exactly what
// encoding/json's indented encoder does — and to fail where it fails
// (NaN, ±Inf, a year outside 0-9999). Each provider report is checked on
// its own (GET /v1/self/audit) and nested three levels deep in the
// certification (GET /v1/certify), which a repeated provider list takes
// across the render-ahead blocks (seed testdata/fuzz/FuzzReportJSON/
// render-ahead).
func FuzzReportJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x05<&>\xe2\x80\xa8\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x04\x03\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzReader{b: data}
		cert := src.certification()
		want, wantErr := encodingJSON(cert)
		rec := httptest.NewRecorder()
		err := writeCertification(rec, cert)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("certification: writer error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("certification differs from encoding/json at byte %d:\n got %q\nwant %q",
				firstDiff(rec.Body.Bytes(), want), rec.Body.Bytes(), want)
		}
		// At most three providers are distinct; the rest repeat them.
		for i := range min(len(cert.Report.Providers), 3) {
			rep := &cert.Report.Providers[i]
			want, wantErr := encodingJSON(rep)
			rec := httptest.NewRecorder()
			err := writeProviderReport(rec, rep)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("provider report: writer error %v, encoding/json error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("provider report differs from encoding/json:\n got %q\nwant %q", rec.Body.Bytes(), want)
			}
		}
	})
}
