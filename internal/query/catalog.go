package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// TableBinding maps one stored table onto the privacy model: the column
// holding the provider key (row provenance). Every other column discloses
// the attribute of its own (canonical) name.
type TableBinding struct {
	Table       *relational.Table
	ProviderCol string
}

// Catalog is the set of table bindings the planner resolves FROM clauses
// against. The owning store binds each table once, when it registers it,
// and serializes Bind against reads.
type Catalog struct {
	tables map[string]*TableBinding
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*TableBinding)}
}

// Bind registers a table with its provider-key column, which must exist in
// the schema.
func (c *Catalog) Bind(t *relational.Table, providerCol string) error {
	providerCol = privacy.CanonAttr(providerCol)
	if _, ok := t.Schema().ColumnIndex(providerCol); !ok {
		return fmt.Errorf("query: table %q has no provider column %q", t.Name(), providerCol)
	}
	c.tables[strings.ToLower(t.Name())] = &TableBinding{Table: t, ProviderCol: providerCol}
	return nil
}

// Lookup resolves a table name (case-insensitive).
func (c *Catalog) Lookup(name string) (*TableBinding, bool) {
	b, ok := c.tables[strings.ToLower(name)]
	return b, ok
}

// Source is the live store the executor enforces over. Implementations
// (internal/ppdb) must keep every method consistent for the duration of one
// Engine.Query call — the store holds its read lock across the call.
type Source interface {
	// Origin returns row provenance: the canonical provider key and the
	// insertion instant. ok is false for rows the store cannot attribute.
	Origin(table string, id relational.RowID) (provider string, inserted time.Time, ok bool)
	// Provider returns a registered provider's preferences and their
	// compiled columns (nil when the policy is unmaskable).
	Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool)
	// Expired reports whether a datum inserted at t and granted retention
	// level l is past its window on the store's clock.
	Expired(l privacy.Level, inserted time.Time) bool
	// Generalize degrades v to the granted granularity level through the
	// attribute's hierarchy (identity at the scale maximum).
	Generalize(attr string, v relational.Value, granted privacy.Level) relational.Value
	// HasHierarchy reports whether the attribute has a generalization
	// hierarchy, i.e. whether Generalize can rewrite its values. The
	// planner refuses the index shortcut for such columns: the index
	// matches raw stored values, so a probe for a generalized label would
	// silently miss rows a full scan answers.
	HasHierarchy(attr string) bool
}

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

// Engine plans and executes enforced SELECTs against one catalog, assessor
// and source snapshot.
type Engine struct {
	cat *Catalog
	asr *core.Assessor
	src Source
}

// New builds an engine over a catalog, the current policy's assessor and a
// live source.
func New(cat *Catalog, asr *core.Assessor, src Source) *Engine {
	return &Engine{cat: cat, asr: asr, src: src}
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
// Table.Lookup rather than a full scan: their RowsScanned/RowsSuppressed
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
	return e.run(plan)
}
