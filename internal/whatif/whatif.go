// Package whatif is the online policy-expansion what-if engine (Secs. 9-10
// of the paper): it evaluates a candidate policy diff against a live
// provider population without mutating anything, and prices the change with
// the Sec. 9 utility calculus (break-even T, Eq. 31; the justification
// inequality, Eqs. 28-30).
//
// The package holds the wire contract shared by POST /v1/whatif
// (internal/httpapi) and the offline cmd/whatif CLI — Request, Diff and
// Response marshal identically on both paths, so the two surfaces cannot
// drift — plus the shadow-evaluation engine internal/ppdb drives:
//
//   - ApplyDiff compiles the candidate diff into a shadow policy and shadow
//     Σ vector, yielding the affected-attribute set;
//   - NewEngine builds a shadow core.Assessor carrying a shadow policy
//     version (live version with the high bit set — a namespace disjoint
//     from live versions, so a shadow answer can never be mistaken for a
//     live one);
//   - Evaluate fans out over key ranges of one immutable, sorted row
//     snapshot that carries each provider's live totals, re-assessing only
//     providers the diff can affect and reusing the live totals for
//     everyone else (see engine.go for the exactness rule).
//
// The engine is read-only by construction: it consumes snapshots and
// produces a Response. It never writes to a store or a WAL.
package whatif

import (
	"fmt"
	"math"
)

// Verdict values of Response.Verdict: the Eq. 28-31 utility classification
// of the candidate.
const (
	// VerdictFree: the candidate loses no providers (N_future ≥ N_current),
	// so the Eq. 31 break-even is ≤ 0 and any positive T pays.
	VerdictFree = "free"
	// VerdictJustified: providers are lost but the realized extra utility T
	// clears the break-even (Eq. 28: N_future(U+T) > N_current·U).
	VerdictJustified = "justified"
	// VerdictUnjustified: the loss is not paid for at the stated T.
	VerdictUnjustified = "unjustified"
)

// TupleSpec names one policy tuple with explicit levels — the wire form of
// a privacy.PolicyTuple for diff additions and retargets.
type TupleSpec struct {
	Attribute   string `json:"attribute"`
	Purpose     string `json:"purpose"`
	Visibility  int    `json:"visibility"`
	Granularity int    `json:"granularity"`
	Retention   int    `json:"retention"`
}

// TupleRef names one existing policy tuple by its (attribute, purpose)
// identity, for diff removals.
type TupleRef struct {
	Attribute string `json:"attribute"`
	Purpose   string `json:"purpose"`
}

// SensitivityChange overrides the house attribute sensitivity Σ^a (Eq. 10)
// for one attribute of the candidate policy.
type SensitivityChange struct {
	Attribute string  `json:"attribute"`
	Value     float64 `json:"value"`
}

// Diff is a candidate policy change expressed against the live policy:
// tuples to add, tuples to remove, tuples to retarget (same
// (attribute, purpose) identity, new levels), and house-sensitivity
// changes. An empty diff is rejected — there is nothing to evaluate.
type Diff struct {
	Add         []TupleSpec         `json:"add,omitempty"`
	Remove      []TupleRef          `json:"remove,omitempty"`
	Retarget    []TupleSpec         `json:"retarget,omitempty"`
	Sensitivity []SensitivityChange `json:"sensitivity,omitempty"`
}

// Empty reports whether the diff contains no change at all.
func (d *Diff) Empty() bool {
	return len(d.Add) == 0 && len(d.Remove) == 0 && len(d.Retarget) == 0 && len(d.Sensitivity) == 0
}

// Request is the POST /v1/whatif body (and the CLI's evaluation input): the
// candidate diff plus the Sec. 9 utility parameters.
type Request struct {
	// Name labels the candidate policy version in the response; empty means
	// the live policy name with a "+whatif" suffix.
	Name string `json:"name,omitempty"`
	// Diff is the candidate change. Must be non-empty.
	Diff Diff `json:"diff"`
	// U is the current per-provider utility (Eq. 25). Must be a finite
	// non-negative number.
	U float64 `json:"u"`
	// T is the realized extra per-provider utility the change would
	// generate (Eq. 27); the verdict compares it against the break-even
	// (Eq. 31). Must be finite.
	T float64 `json:"t"`
	// Detail asks for the per-segment default counts (Response.Segments).
	// Over HTTP this requires the operator privilege: segment counts
	// disclose how many providers hold preferences on each touched
	// attribute.
	Detail bool `json:"detail,omitempty"`
}

// Validate rejects malformed utility parameters. Diff structure is
// validated by ApplyDiff, which has the live policy to check against.
func (r *Request) Validate() error {
	if math.IsNaN(r.U) || math.IsInf(r.U, 0) || r.U < 0 {
		return fmt.Errorf("whatif: u %g must be a finite non-negative number", r.U)
	}
	if math.IsNaN(r.T) || math.IsInf(r.T, 0) {
		return fmt.Errorf("whatif: t %g must be a finite number", r.T)
	}
	if r.Diff.Empty() {
		return fmt.Errorf("whatif: empty diff: nothing to evaluate")
	}
	return nil
}

// Summary is the aggregate half of a population report on the wire: the
// paper's population quantities without per-provider rows.
type Summary struct {
	N               int     `json:"n"`
	ViolatedCount   int     `json:"violatedCount"`   // Σ_i w_i
	DefaultCount    int     `json:"defaultCount"`    // Σ_i default_i
	TotalViolations float64 `json:"totalViolations"` // Eq. 16
	PW              float64 `json:"pw"`              // Def. 2
	PDefault        float64 `json:"pDefault"`        // Def. 5
}

// Segment is one affected attribute's slice of the population: how many
// providers hold explicit preferences or sensitivities on it, and how many
// of those default under the live and candidate policies. Counts only —
// order-independent integers, never provider identities.
type Segment struct {
	Attribute        string `json:"attribute"`
	Providers        int    `json:"providers"`
	DefaultsCurrent  int    `json:"defaultsCurrent"`
	DefaultsProposed int    `json:"defaultsProposed"`
}

// Response is the what-if result: predicted population state under the
// candidate, the deltas, and the Sec. 9 economics.
type Response struct {
	// PolicyName and PolicyVersion identify the live policy the diff was
	// evaluated against; ProposedName labels the candidate.
	PolicyName    string `json:"policyName"`
	PolicyVersion uint64 `json:"policyVersion"`
	ProposedName  string `json:"proposedName"`
	// ShadowVersion is the candidate's shadow policy version: the live
	// version with the high bit set, a namespace no live version occupies.
	ShadowVersion uint64 `json:"shadowVersion"`

	Current  Summary `json:"current"`
	Proposed Summary `json:"proposed"`

	// DeltaPW and DeltaPDefault are proposed − current.
	DeltaPW       float64 `json:"deltaPW"`
	DeltaPDefault float64 `json:"deltaPDefault"`

	// NCurrent is the non-defaulting population now; NFuture the predicted
	// non-defaulting population under the candidate (Sec. 9's N_current and
	// N_future).
	NCurrent int `json:"nCurrent"`
	NFuture  int `json:"nFuture"`

	// U and T echo the request's utility parameters.
	U float64 `json:"u"`
	T float64 `json:"t"`
	// BreakEvenT is Eq. 31 for the predicted provider loss; omitted (null)
	// when no finite T pays — the candidate would default every provider.
	BreakEvenT *float64 `json:"breakEvenT,omitempty"`
	// Justified is Eq. 28 at the stated T; Verdict the three-way
	// classification (free / justified / unjustified).
	Justified bool   `json:"justified"`
	Verdict   string `json:"verdict"`

	// AffectedAttributes is the sorted attribute set the diff touches.
	// GlobalFallback reports that the engine could not prove unaffected
	// providers unchanged (the diff moves an attribute's implicit-zero
	// conflicts — see DESIGN.md §16) and re-assessed the whole population.
	AffectedAttributes []string `json:"affectedAttributes"`
	GlobalFallback     bool     `json:"globalFallback"`
	// Affected counts providers re-assessed under the shadow policy;
	// MemoReused counts providers whose live totals were reused unchanged.
	// Affected + MemoReused = N.
	Affected   int `json:"affected"`
	MemoReused int `json:"memoReused"`

	// Segments carries the per-attribute default counts; only present when
	// the request asked for detail (operator-gated over HTTP).
	Segments []Segment `json:"segments,omitempty"`
}
