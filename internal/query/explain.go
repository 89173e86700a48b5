package query

import (
	"fmt"
	"strings"

	"repro/internal/privacy"
	"repro/internal/relational"
)

// Action classifies one enforcement decision.
type Action string

// Enforcement actions.
const (
	// ActionSuppress withholds a whole row.
	ActionSuppress Action = "suppress"
	// ActionGeneralize degrades one cell to a permitted granularity.
	ActionGeneralize Action = "generalize"
	// ActionExpire refuses one cell held past its retention window.
	ActionExpire Action = "expire"
)

// Trace attributes one enforcement action to its cause. For actions forced
// by a provider preference, Pref and Policy name the violating
// (pref, policy) tuple pair — the same pair certification (Eq. 14) would
// score; actions forced by the policy alone (or by missing provenance)
// carry a Reason instead of a Pref.
type Trace struct {
	Row          relational.RowID `json:"row"`
	Provider     string           `json:"provider,omitempty"`
	Column       string           `json:"column,omitempty"`
	Attribute    string           `json:"attribute,omitempty"`
	Action       Action           `json:"action"`
	Dimension    string           `json:"dimension,omitempty"`
	Granted      privacy.Level    `json:"granted"`
	Pref         *privacy.Tuple   `json:"pref,omitempty"`
	PrefImplicit bool             `json:"prefImplicit,omitempty"`
	Policy       *privacy.Tuple   `json:"policy,omitempty"`
	Reason       string           `json:"reason,omitempty"`
}

// Explain is the enforcement trace of one query: the plan the executor
// chose and every per-datum decision, in row order.
type Explain struct {
	SQL        string          `json:"sql"`
	Table      string          `json:"table"`
	Scan       string          `json:"scan"`
	Purpose    privacy.Purpose `json:"purpose"`
	Visibility privacy.Level   `json:"visibility"`
	Entries    []Trace         `json:"entries"`
}

// newExplain seeds the trace with the plan summary.
func newExplain(p *plan) *Explain {
	scan := "full"
	if p.useIdx {
		scan = fmt.Sprintf("index(%s=%s)", p.schema.Column(p.idxCol).Name, p.idxVal)
	}
	return &Explain{
		SQL:        p.req.SQL,
		Table:      p.table,
		Scan:       scan,
		Purpose:    p.req.Purpose.Normalize(),
		Visibility: p.req.Visibility,
	}
}

// suppress records a whole-row refusal with a plain reason. Nil-safe: when
// EXPLAIN was not requested the receiver is nil and nothing is recorded.
func (x *Explain) suppress(id relational.RowID, provider, reason string) {
	if x == nil {
		return
	}
	x.Entries = append(x.Entries, Trace{Row: id, Provider: provider, Action: ActionSuppress, Reason: reason})
}

// violation records one pair-attributed enforcement decision. Nil-safe.
func (x *Explain) violation(t Trace) {
	if x == nil {
		return
	}
	x.Entries = append(x.Entries, t)
}

// violations appends a batch of decisions. Nil-safe.
func (x *Explain) violations(ts []Trace) {
	if x == nil {
		return
	}
	x.Entries = append(x.Entries, ts...)
}

// Render prints the trace as stable, line-oriented text — the golden-file
// format: a plan header, then one line per enforcement decision in
// execution order. Every field is printed in a fixed order so diffs are
// meaningful.
func (x *Explain) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", x.SQL)
	fmt.Fprintf(&sb, "table: %s scan=%s purpose=%s visibility=%d\n", x.Table, x.Scan, x.Purpose, x.Visibility)
	if len(x.Entries) == 0 {
		sb.WriteString("trace: clean (no suppression, generalization or expiry)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "trace: %d entries\n", len(x.Entries))
	for _, t := range x.Entries {
		fmt.Fprintf(&sb, "  row=%d provider=%s action=%s", t.Row, t.Provider, t.Action)
		if t.Column != "" {
			fmt.Fprintf(&sb, " column=%s attr=%s", t.Column, t.Attribute)
		}
		if t.Dimension != "" {
			fmt.Fprintf(&sb, " dim=%s granted=%d", t.Dimension, t.Granted)
		}
		if t.Pref != nil {
			fmt.Fprintf(&sb, " pref=%s", t.Pref)
			if t.PrefImplicit {
				sb.WriteString(" (implicit-zero)")
			}
		}
		if t.Policy != nil {
			fmt.Fprintf(&sb, " policy=%s", t.Policy)
		}
		if t.Reason != "" {
			fmt.Fprintf(&sb, " reason=%q", t.Reason)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
