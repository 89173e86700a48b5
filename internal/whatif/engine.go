package whatif

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/ledger"
	"repro/internal/privacy"
)

// ShadowVersionBit marks shadow policy versions: a candidate evaluated by
// the engine carries the live policy version with this bit set. Live policy
// versions are small monotonic counters, so the two namespaces are disjoint
// — a shadow version can never equal a live one, so a shadow answer can
// never be mistaken for a live one.
const ShadowVersionBit = uint64(1) << 63

// Engine evaluates one candidate diff against provider populations. It is
// immutable after NewEngine and safe for concurrent Evaluate calls.
type Engine struct {
	live   *core.Assessor
	shadow *core.Assessor
	req    *Request

	policyName    string
	proposedName  string
	policyVersion uint64
	shadowVersion uint64

	affectedAttrs []string        // sorted attributes the diff touches
	affectedSet   map[string]bool // same set, for membership tests
	// allAffected is the global fallback: the diff changes the conflict
	// structure an *empty* preference set sees on some affected attribute
	// (implicit-zero conflicts, Sec. 5), so no provider can be proven
	// unaffected and everyone is re-assessed under the shadow policy.
	allAffected bool
}

// NewEngine validates the request, compiles the candidate diff into a
// shadow assessor, and decides the reuse strategy. live must be the
// assessor the rows' live totals were computed with (internal/ppdb's
// cached one). policyVersion is the live policy version the shadow version
// derives from.
func NewEngine(live *core.Assessor, attrSens privacy.AttributeSensitivities, opts core.Options,
	policyVersion uint64, req *Request, sc privacy.Scales) (*Engine, error) {
	if live == nil {
		return nil, fmt.Errorf("whatif: nil live assessor")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	livePolicy := live.Policy()
	proposedName := req.Name
	if proposedName == "" {
		proposedName = livePolicy.Name + "+whatif"
	}
	shadowPolicy, shadowSens, affected, err := ApplyDiff(livePolicy, attrSens, &req.Diff, proposedName, sc)
	if err != nil {
		return nil, err
	}
	shadow, err := core.NewAssessor(shadowPolicy, shadowSens, opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		live:          live,
		shadow:        shadow,
		req:           req,
		policyName:    livePolicy.Name,
		proposedName:  proposedName,
		policyVersion: policyVersion,
		shadowVersion: policyVersion | ShadowVersionBit,
		affectedAttrs: affected,
		affectedSet:   make(map[string]bool, len(affected)),
	}
	for _, a := range affected {
		e.affectedSet[a] = true
	}
	e.allAffected = !e.genericConflictsUnchanged()
	return e, nil
}

// genericConflictsUnchanged implements the exactness rule behind
// affected-set pruning. A provider who touches no affected attribute (no
// explicit preference tuples, no σ elements) is assessed on each affected
// attribute exactly like the empty preference set: unit sensitivities and,
// under the Sec. 5 rule, one implicit zero tuple per house purpose. So the
// provider's report is provably unchanged by the diff iff the empty set's
// pair conflicts on every affected attribute are identical under the live
// and shadow assessors. When they differ — the diff widened a tuple past
// zero, added a purpose, or rescaled Σ where overshoot exists — every
// preference-less provider's violation amount moves, and only a global
// re-assessment is exact.
func (e *Engine) genericConflictsUnchanged() bool {
	empty := privacy.NewPrefs("", 0)
	liveRep := e.live.AssessProvider(empty)
	shadowRep := e.shadow.AssessProvider(empty)
	byAttr := func(rep core.ProviderReport) map[string][]core.PairConflict {
		m := map[string][]core.PairConflict{}
		for _, pc := range rep.Pairs {
			m[pc.Attribute] = append(m[pc.Attribute], pc)
		}
		return m
	}
	livePairs, shadowPairs := byAttr(liveRep), byAttr(shadowRep)
	for _, a := range e.affectedAttrs {
		if !reflect.DeepEqual(livePairs[a], shadowPairs[a]) {
			return false
		}
	}
	return true
}

// touches reports whether p holds explicit state on an affected attribute.
func (e *Engine) touches(p *privacy.Prefs) bool {
	for _, a := range e.affectedAttrs {
		if p.TouchesAttribute(a) {
			return true
		}
	}
	return false
}

// ShadowVersion returns the candidate's shadow policy version.
func (e *Engine) ShadowVersion() uint64 { return e.shadowVersion }

// AffectedAttributes returns the sorted attribute set the diff touches.
func (e *Engine) AffectedAttributes() []string { return e.affectedAttrs }

// GlobalFallback reports whether the engine must re-assess every provider.
func (e *Engine) GlobalFallback() bool { return e.allAffected }

// Evaluate assesses the candidate against a provider population: rows in
// ascending key order, each carrying its live totals under the engine's
// live assessor. Providers the diff cannot affect reuse those totals; the
// rest are re-assessed under the shadow policy across the fan-out, into
// slots aligned with rows. Both populations are then summed serially in
// row order, so the current summary is bit-identical to a full
// certification. Evaluate writes nothing the rows reach.
func (e *Engine) Evaluate(rows []*ledger.Row) *Response {
	shd := make([]core.Totals, len(rows))
	var affected atomic.Int64
	core.FanOut(len(rows), func(lo, hi int) {
		var sc core.Scratch
		n := 0
		for i := lo; i < hi; i++ {
			r := rows[i]
			if e.allAffected || e.touches(r.Prefs) {
				// The stored columns were compiled against the live policy,
				// so the kernel compiles the provider against the shadow
				// policy into the worker's scratch.
				shd[i] = e.shadow.AssessTotals(r.Prefs, nil, &sc)
				n++
			} else {
				shd[i] = r.Totals
			}
		}
		affected.Add(int64(n))
	})

	var cur, prop core.Partial
	for i, r := range rows {
		cur.Add(r.Totals)
		prop.Add(shd[i])
	}

	resp := &Response{
		PolicyName:         e.policyName,
		PolicyVersion:      e.policyVersion,
		ProposedName:       e.proposedName,
		ShadowVersion:      e.shadowVersion,
		Current:            summaryOf(cur),
		Proposed:           summaryOf(prop),
		DeltaPW:            prop.PW() - cur.PW(),
		DeltaPDefault:      prop.PDefault() - cur.PDefault(),
		NCurrent:           cur.N - cur.DefaultCount,
		NFuture:            prop.N - prop.DefaultCount,
		U:                  e.req.U,
		T:                  e.req.T,
		AffectedAttributes: e.affectedAttrs,
		GlobalFallback:     e.allAffected,
		Affected:           int(affected.Load()),
	}
	resp.MemoReused = len(rows) - resp.Affected

	if be := economics.BreakEvenT(e.req.U, resp.NCurrent, resp.NFuture); !math.IsInf(be, 1) {
		resp.BreakEvenT = &be
	}
	resp.Justified = economics.Justified(e.req.U, e.req.T, resp.NCurrent, resp.NFuture)
	switch {
	case resp.NFuture >= resp.NCurrent:
		resp.Verdict = VerdictFree
	case resp.Justified:
		resp.Verdict = VerdictJustified
	default:
		resp.Verdict = VerdictUnjustified
	}

	if e.req.Detail {
		resp.Segments = make([]Segment, len(e.affectedAttrs))
		for k, a := range e.affectedAttrs {
			seg := &resp.Segments[k]
			seg.Attribute = a
			for i, r := range rows {
				if !r.Prefs.TouchesAttribute(a) {
					continue
				}
				seg.Providers++
				if r.Totals.Defaults {
					seg.DefaultsCurrent++
				}
				if shd[i].Defaults {
					seg.DefaultsProposed++
				}
			}
		}
	}
	return resp
}

func summaryOf(p core.Partial) Summary {
	return Summary{
		N:               p.N,
		ViolatedCount:   p.ViolatedCount,
		DefaultCount:    p.DefaultCount,
		TotalViolations: p.TotalViolations,
		PW:              p.PW(),
		PDefault:        p.PDefault(),
	}
}

// EvaluateOffline runs a what-if against an in-memory population with no
// store — the cmd/whatif path. It upserts pop into a provider table under
// the live assessor, as the store registers it — keyed by
// privacy.ProviderKey, a key given twice keeping its last block — and
// evaluates the table's rows in key order, so offline and online responses
// for the same corpus are identical.
func EvaluateOffline(policy *privacy.HousePolicy, attrSens privacy.AttributeSensitivities,
	opts core.Options, pop []*privacy.Prefs, req *Request) (*Response, error) {
	live, err := core.NewAssessor(policy, attrSens, opts)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(live, attrSens, opts, 0, req, privacy.DefaultScales())
	if err != nil {
		return nil, err
	}
	table := ledger.NewTable()
	table.Upsert(live, ledger.ItemsOf(pop))
	return e.Evaluate(table.Rows()), nil
}
