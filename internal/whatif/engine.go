package whatif

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/economics"
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
// assessor the snapshot's live reports were computed with (internal/ppdb's
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

// ShadowVersion returns the candidate's shadow policy version.
func (e *Engine) ShadowVersion() uint64 { return e.shadowVersion }

// AffectedAttributes returns the sorted attribute set the diff touches.
func (e *Engine) AffectedAttributes() []string { return e.affectedAttrs }

// GlobalFallback reports whether the engine must re-assess every provider.
func (e *Engine) GlobalFallback() bool { return e.allAffected }

// ShardSource is one shard's immutable provider snapshot: parallel slices
// in ascending key order, each provider with its live report under the
// engine's live assessor.
type ShardSource struct {
	Keys    []string
	Prefs   []*privacy.Prefs
	Reports []core.ProviderReport
}

// shardEval is one shard's evaluation output, merged after the fan-out.
type shardEval struct {
	shd      []core.ProviderReport
	affected int
	reused   int
	// per affected-attribute segment tallies, indexed like affectedAttrs
	segProviders []int
	segDefCur    []int
	segDefShd    []int
}

// Evaluate assesses the candidate against the provider population in
// shards, reusing each live report for providers the diff cannot affect and
// re-assessing under the shadow policy only those it can. It reads the
// snapshots and writes nothing anywhere.
func (e *Engine) Evaluate(shards []ShardSource) *Response {
	evals := make([]shardEval, len(shards))
	core.FanOut(len(shards), len(shards), func(si int) {
		src := shards[si]
		ev := &evals[si]
		ev.shd = make([]core.ProviderReport, len(src.Keys))
		ev.segProviders = make([]int, len(e.affectedAttrs))
		ev.segDefCur = make([]int, len(e.affectedAttrs))
		ev.segDefShd = make([]int, len(e.affectedAttrs))
		var sc core.Scratch
		for i, p := range src.Prefs {
			cur := src.Reports[i]
			touched := e.allAffected
			for _, a := range e.affectedAttrs {
				if p.TouchesAttribute(a) {
					touched = true
					break
				}
			}
			shd := cur
			if touched {
				// The stored columns were compiled against the live policy,
				// so the kernel compiles the provider against the shadow
				// policy into the worker's scratch.
				shd = e.shadow.AssessRow(p, nil, &sc)
				ev.affected++
			} else {
				ev.reused++
			}
			ev.shd[i] = shd

			if e.req.Detail {
				for k, a := range e.affectedAttrs {
					if !p.TouchesAttribute(a) {
						continue
					}
					ev.segProviders[k]++
					if cur.Defaults {
						ev.segDefCur[k]++
					}
					if shd.Defaults {
						ev.segDefShd[k]++
					}
				}
			}
		}
	})

	// Merge into the global ascending key order, so both population totals
	// are float-summed in the canonical certification order and the current
	// summary is bit-identical to a full certification.
	keys := make([][]string, len(shards))
	total := 0
	for si := range shards {
		keys[si] = shards[si].Keys
		total += len(keys[si])
	}
	curRows := make([]core.ProviderReport, 0, total)
	shdRows := make([]core.ProviderReport, 0, total)
	core.MergeSorted(keys, func(si, i int) {
		curRows = append(curRows, shards[si].Reports[i])
		shdRows = append(shdRows, evals[si].shd[i])
	})

	cur := core.AssemblePopulation(curRows)
	shd := core.AssemblePopulation(shdRows)

	resp := &Response{
		PolicyName:         e.policyName,
		PolicyVersion:      e.policyVersion,
		ProposedName:       e.proposedName,
		ShadowVersion:      e.shadowVersion,
		Current:            summaryOf(cur),
		Proposed:           summaryOf(shd),
		DeltaPW:            shd.PW - cur.PW,
		DeltaPDefault:      shd.PDefault - cur.PDefault,
		NCurrent:           cur.N - cur.DefaultCount,
		NFuture:            shd.N - shd.DefaultCount,
		U:                  e.req.U,
		T:                  e.req.T,
		AffectedAttributes: e.affectedAttrs,
		GlobalFallback:     e.allAffected,
	}
	for _, ev := range evals {
		resp.Affected += ev.affected
		resp.MemoReused += ev.reused
	}

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
			seg := Segment{Attribute: a}
			for _, ev := range evals {
				seg.Providers += ev.segProviders[k]
				seg.DefaultsCurrent += ev.segDefCur[k]
				seg.DefaultsProposed += ev.segDefShd[k]
			}
			resp.Segments[k] = seg
		}
	}
	return resp
}

func summaryOf(rep core.PopulationReport) Summary {
	return Summary{
		N:               rep.N,
		ViolatedCount:   rep.ViolatedCount,
		DefaultCount:    rep.DefaultCount,
		TotalViolations: rep.TotalViolations,
		PW:              rep.PW,
		PDefault:        rep.PDefault,
	}
}

// EvaluateOffline runs a what-if against an in-memory population with no
// store — the cmd/whatif path. It assesses every provider's live report
// itself (the columnar kernel, as the store does) and evaluates the
// population in ascending case-folded provider order, the same canonical
// order internal/ppdb certifies in, so offline and online responses for the
// same state are identical.
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
	sorted := make([]*privacy.Prefs, len(pop))
	copy(sorted, pop)
	sort.SliceStable(sorted, func(i, j int) bool {
		return strings.ToLower(sorted[i].Provider) < strings.ToLower(sorted[j].Provider)
	})
	src := ShardSource{
		Keys:    make([]string, len(sorted)),
		Prefs:   sorted,
		Reports: make([]core.ProviderReport, len(sorted)),
	}
	var sc core.Scratch
	for i, p := range sorted {
		src.Keys[i] = strings.ToLower(p.Provider)
		src.Reports[i] = live.AssessRow(p, nil, &sc)
	}
	return e.Evaluate([]ShardSource{src}), nil
}
