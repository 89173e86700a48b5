// Per-datum query enforcement (DESIGN.md §15): QueryEnforced runs a SELECT
// through internal/query, which checks every answered cell against the
// contributing provider's live preferences. It is the only read path out
// of the store; POST /v1/query serves it.
package ppdb

import (
	"errors"
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
// the engine while QueryEnforced holds d.mu shared, so the table map, the
// clock and the retention schedule are stable for the whole query;
// provider reads take the owning shard's lock (mu → dbShard.mu, the
// declared order).
type enforceSource struct {
	d *DB
}

// Origin implements query.Source.
func (s enforceSource) Origin(table string, id relational.RowID) (string, time.Time, bool) {
	tm, ok := s.d.tables[strings.ToLower(table)]
	if !ok {
		return "", time.Time{}, false
	}
	meta, ok := tm.rows[id]
	if !ok {
		return "", time.Time{}, false
	}
	return meta.provider, meta.inserted, true
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

// Generalize implements query.Source.
func (s enforceSource) Generalize(attr string, v relational.Value, granted privacy.Level) relational.Value {
	lv := s.d.hierarchyLevel(attr, granted)
	if lv == 0 {
		return v
	}
	return s.d.hierarchyFor(attr).Generalize(v, lv)
}

// HasHierarchy implements query.Source: true only for attributes with a
// registered generalization hierarchy. Attributes without one fall back to
// suppress-only degradation ("*" above level 0), which the planner's
// index-shortcut refusal does not cover — see the API.md caveat.
func (s enforceSource) HasHierarchy(attr string) bool {
	_, ok := s.d.hierarchies[strings.ToLower(attr)]
	return ok
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

// hierarchyLevel converts a granted granularity level (0 = reveal nothing …
// scale max = fully specific) into the attribute hierarchy's generalization
// level (0 = exact … Levels-1 = suppressed), scaling proportionally.
func (d *DB) hierarchyLevel(attr string, g privacy.Level) int {
	gmax := int(d.scales.Granularity.Max())
	if gmax <= 0 {
		return 0
	}
	if g >= privacy.Level(gmax) {
		return 0
	}
	if g <= 0 {
		return d.hierarchyFor(attr).Levels() - 1
	}
	hmax := d.hierarchyFor(attr).Levels() - 1
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
// runs under one shared acquisition of d.mu, so the answer reflects a
// consistent snapshot of policy, preferences, tables and clock. Every
// attempt — allowed or refused — lands in the audit log.
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
	res, err := query.New(d.catalog, d.assessor, enforceSource{d: d}).Query(query.Request{
		Requester:  q.Requester,
		Purpose:    q.Purpose,
		Visibility: q.Visibility,
		SQL:        q.SQL,
		Explain:    q.Explain,
	})
	return res, d.now, err
}
