package query

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// Source is the live store the executor enforces over. Implementations
// (internal/ppdb) must keep the tables, the clock and the degradations
// stable for the duration of one Engine.Query call — the store holds its
// read lock across the call. Provider may answer with each provider's
// preferences as they stand at the moment of the call: every row is
// enforced against its own provider's preferences when it is visited.
type Source interface {
	// Table resolves a table name (lower-cased by the parser) to its rows.
	Table(name string) (Rows, bool)
	// Provider returns a registered provider's preferences and their
	// compiled columns.
	Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool)
	// Expired reports whether a datum inserted at t and granted retention
	// level l is past its window on the store's clock.
	Expired(l privacy.Level, inserted time.Time) bool
	// Generalizer resolves the attribute's degradation once per plan, and
	// reports whether the attribute has a generalization hierarchy, i.e.
	// whether its values generalize to labels other than a suppression
	// marker. The planner refuses the index shortcut for such columns: the
	// index matches raw stored values, so a probe for a generalized label
	// would silently miss rows a full scan answers.
	Generalizer(attr string) (g Generalizer, hierarchy bool)
}

// Generalizer degrades one attribute's values.
type Generalizer interface {
	// Generalize degrades v to the granted granularity level (identity at
	// the scale maximum).
	Generalize(v relational.Value, granted privacy.Level) relational.Value
}

// Rows is one stored table as the executor reads it. Each row is held
// with its provenance, so a scan hands the executor the row's owner along
// with its cells. Every column discloses the attribute of its own
// (canonical) name.
type Rows interface {
	// Schema is the table's relation schema.
	Schema() *relational.Schema
	// ProviderCol is the canonical name of the column holding each row's
	// provider key.
	ProviderCol() string
	// Indexed reports whether Probe answers equality on schema column col
	// from an index rather than a scan.
	Indexed(col int) bool
	// Scan visits every stored row in ascending row-id order.
	Scan(visit Visit)
	// Probe visits, in ascending row-id order, the stored rows whose
	// Indexed column col equals the non-NULL value v.
	Probe(col int, v relational.Value, visit Visit)
}

// Visit receives one stored row: its id, its cells (read-only, and only
// for the duration of the call) and its provenance — the canonical key of
// the provider who contributed it ("" when the store cannot attribute it)
// and the instant it was inserted.
type Visit func(id relational.RowID, row relational.Row, provider string, inserted time.Time)

// DeniedError is a plan-time refusal: the stated purpose or requester class
// is not admitted by the policy for some referenced attribute.
type DeniedError struct {
	Attribute string
	Reason    string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("query: access denied on %q: %s", e.Attribute, e.Reason)
}

// UnenforceableError reports a statement whose answer cells cannot each be
// attributed to a single (provider, attribute) pair, so per-datum
// enforcement cannot prove the answer conformant.
type UnenforceableError struct {
	Construct string
	Reason    string
}

// Error implements error.
func (e *UnenforceableError) Error() string {
	return fmt.Sprintf("query: %s is not enforceable per datum: %s", e.Construct, e.Reason)
}

// Engine plans and executes enforced SELECTs against one assessor and
// source snapshot.
type Engine struct {
	asr *core.Assessor
	src Source
}

// New builds an engine over the current policy's assessor and a live
// source.
func New(asr *core.Assessor, src Source) *Engine {
	return &Engine{asr: asr, src: src}
}

// Request is one enforced read: who asks (a visibility class), why (a
// purpose), and what (a SELECT in the engine's dialect). Explain asks for
// the per-datum enforcement trace alongside the answer.
type Request struct {
	Requester  string
	Purpose    privacy.Purpose
	Visibility privacy.Level
	SQL        string
	Explain    bool
}

// Stats counts the enforcement work behind one answer.
type Stats struct {
	RowsScanned      int `json:"rowsScanned"`
	RowsSuppressed   int `json:"rowsSuppressed"`
	RowsMatched      int `json:"rowsMatched"`
	RowsReturned     int `json:"rowsReturned"`
	CellsGeneralized int `json:"cellsGeneralized"`
	CellsExpired     int `json:"cellsExpired"`
}

// Result is the enforced answer: the relation plus enforcement stats and,
// when requested, the EXPLAIN trace. IndexScan marks answers produced via
// Rows.Probe rather than a full scan: their RowsScanned/RowsSuppressed
// counts depend on the probed literal's raw-value matches, so serving
// layers must withhold them from unprivileged requesters (a per-literal
// count of withheld rows is an oracle on suppressed data).
type Result struct {
	Columns   []string
	Rows      [][]relational.Value
	Stats     Stats
	IndexScan bool
	Explain   *Explain
}

// Query plans and runs one enforced SELECT.
func (e *Engine) Query(req Request) (*Result, error) {
	plan, err := e.Plan(req)
	if err != nil {
		return nil, err
	}
	return e.run(plan), nil
}
