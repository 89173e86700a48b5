// Per-datum query enforcement (DESIGN.md §15): QueryEnforced runs a SELECT
// through internal/query, which checks every answered cell against the
// contributing provider's live preferences. It is the only read path out
// of the store; POST /v1/query serves it.
package ppdb

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// Enforced-query instrumentation (DESIGN.md §10): calls by verdict, plus
// the wall time of the whole plan+enforce+execute pipeline.
var (
	mQueryAllowed = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "allowed")
	mQueryDenied = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "denied")
	mQueryUnenforceable = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "unenforceable")
	mQueryInvalid = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "invalid")
	mQuerySeconds = metrics.Default.Histogram("ppdb_query_enforce_seconds",
		"wall time of per-datum query enforcement", nil)
)

// EnforcedQuery is one per-datum-enforced read: who asks (a visibility
// class on the taxonomy's visibility scale, e.g. house = 2, third-party = 3
// on the default scale), why (a purpose), what (a SELECT), and whether to
// return the EXPLAIN trace.
type EnforcedQuery struct {
	Requester  string
	Purpose    privacy.Purpose
	Visibility privacy.Level
	SQL        string
	Explain    bool
}

// enforceSource adapts the DB to query.Source. Every method is called by
// the engine while QueryEnforced holds d.mu shared, so the tables, the
// clock and the retention schedule are stable for the whole query;
// provider reads take the owning shard's lock (mu → dbShard.mu, the
// declared order).
type enforceSource struct {
	d *DB
}

// Table implements query.Source: the engine scans the rowTable in place.
func (s enforceSource) Table(name string) (query.Rows, bool) {
	t, ok := s.d.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return t, true
}

// Provider implements query.Source.
func (s enforceSource) Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool) {
	r, ok := s.d.rowShared(key)
	if !ok {
		return nil, nil, false
	}
	return r.Prefs, r.Compiled, true
}

// Expired implements query.Source.
func (s enforceSource) Expired(l privacy.Level, inserted time.Time) bool {
	return s.d.retention.Expired(s.d.scales.Retention, l, inserted, s.d.now)
}

// Generalizer implements query.Source with the attribute's degradation
// resolved when the store was built. Only attributes with a registered
// hierarchy report one; the rest fall back to suppress-only degradation
// ("*" above level 0), which the planner's index-shortcut refusal does not
// cover — see the API.md caveat.
func (s enforceSource) Generalizer(attr string) (query.Generalizer, bool) {
	if g, ok := s.d.generalizers[strings.ToLower(attr)]; ok {
		return g, true
	}
	return s.d.suppressGen, false
}

// hierarchyFor returns the attribute's hierarchy, defaulting to plain
// suppression.
func (d *DB) hierarchyFor(attr string) hierarchy {
	if h, ok := d.hierarchies[strings.ToLower(attr)]; ok {
		return h
	}
	return suppressOnly{}
}

// hierarchy is the subset of generalize.Hierarchy the PPDB needs; declared
// locally to keep the import surface explicit.
type hierarchy interface {
	Levels() int
	Generalize(v relational.Value, level int) relational.Value
}

// suppressOnly degrades any value to "*" at any level above 0.
type suppressOnly struct{}

func (suppressOnly) Levels() int { return 2 }
func (suppressOnly) Generalize(v relational.Value, level int) relational.Value {
	if level <= 0 || v.IsNull() {
		return v
	}
	return relational.Text("*")
}

// generalizer is one attribute's degradation as the query engine applies
// it per cell: the hierarchy, and the hierarchy level each granted
// granularity level maps to, tabulated from hierarchyLevel when the store
// is built (hierarchies and scales are fixed for the store's lifetime).
type generalizer struct {
	h      hierarchy
	levels []int // granted level 0..scale max → hierarchy level
}

// newGeneralizer tabulates h's level map.
func (d *DB) newGeneralizer(h hierarchy) *generalizer {
	g := &generalizer{h: h}
	for l := privacy.LevelZero; l <= d.scales.Granularity.Max(); l++ {
		g.levels = append(g.levels, d.levelIn(h, l))
	}
	return g
}

// Generalize implements query.Generalizer. Levels past the scale maximum
// disclose exactly and levels below zero withhold as much as zero does,
// as in hierarchyLevel.
func (g *generalizer) Generalize(v relational.Value, granted privacy.Level) relational.Value {
	lv := 0
	switch {
	case granted < 0:
		lv = g.levels[0]
	case int(granted) < len(g.levels):
		lv = g.levels[granted]
	}
	if lv == 0 {
		return v
	}
	return g.h.Generalize(v, lv)
}

// hierarchyLevel converts a granted granularity level (0 = reveal nothing …
// scale max = fully specific) into the attribute hierarchy's generalization
// level (0 = exact … Levels-1 = suppressed), scaling proportionally.
func (d *DB) hierarchyLevel(attr string, g privacy.Level) int {
	return d.levelIn(d.hierarchyFor(attr), g)
}

// levelIn is hierarchyLevel for hierarchy h.
func (d *DB) levelIn(h hierarchy, g privacy.Level) int {
	gmax := int(d.scales.Granularity.Max())
	if gmax <= 0 {
		return 0
	}
	if g >= privacy.Level(gmax) {
		return 0
	}
	hmax := h.Levels() - 1
	if g <= 0 {
		return hmax
	}
	// Fraction of granularity withheld, mapped onto hierarchy levels,
	// rounding toward more privacy.
	withheld := float64(gmax-int(g)) / float64(gmax)
	lv := int(withheld*float64(hmax) + 0.999999)
	if lv > hmax {
		lv = hmax
	}
	return lv
}

// QueryEnforced answers a SELECT with per-datum enforcement: rows whose
// providers would be violated on visibility are suppressed, cells are
// generalized to the minimum of policy grant and provider preference, and
// data held past either retention window is refused. The whole execution
// runs under one shared acquisition of d.mu, so policy, tables, clock and
// retention schedule are one snapshot. Preferences are not: RegisterProvider
// holds d.mu only shared, so each row is enforced against its provider's
// preferences as they stand when the scan visits it — still sound per
// datum, since every disclosed cell conforms to its provider's preferences
// at the moment it was read. A requester class outside the visibility
// scale is refused as invalid before planning: the plan and row gates
// compare classes against levels, and an off-scale class would pass both.
// Every attempt — allowed or refused — lands in the audit log.
func (d *DB) QueryEnforced(q EnforcedQuery) (*query.Result, error) {
	start := time.Now()
	res, at, err := d.queryShared(q)
	mQuerySeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		var denied *query.DeniedError
		var unenf *query.UnenforceableError
		switch {
		case errors.As(err, &denied):
			mQueryDenied.Inc()
		case errors.As(err, &unenf):
			mQueryUnenforceable.Inc()
		default:
			mQueryInvalid.Inc()
		}
		d.audit.record(at, q, false, err.Error())
		return nil, err
	}
	mQueryAllowed.Inc()
	d.audit.record(at, q, true, "")
	return res, nil
}

// queryShared runs the engine under d.mu held shared and returns the
// clock the answer was read at. The deferred unlock releases the lock even
// if the engine panics, so a bad query can never wedge later writers.
func (d *DB) queryShared(q EnforcedQuery) (*query.Result, time.Time, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.scales.Visibility.Contains(q.Visibility) {
		return nil, d.now, fmt.Errorf("ppdb: requester class %d is not on the visibility scale (0-%d)",
			q.Visibility, d.scales.Visibility.Max())
	}
	res, err := query.New(d.assessor, enforceSource{d: d}).Query(query.Request{
		Requester:  q.Requester,
		Purpose:    q.Purpose,
		Visibility: q.Visibility,
		SQL:        q.SQL,
		Explain:    q.Explain,
	})
	return res, d.now, err
}
