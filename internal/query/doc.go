// Package query is the policy-aware query layer over internal/relational
// (DESIGN.md §15) and the only SQL executor in the system: every SELECT
// carries a purpose and a requester visibility class, and the executor
// enforces the paper's four dimensions per datum against the live
// preference state, not merely against the house policy.
//
// The pieces:
//
//   - Source.Table resolves the FROM clause to the store's Rows: the
//     schema, the column carrying the provider key (every column discloses
//     the attribute of its own name), and the rows themselves, each with
//     its provenance inline.
//   - The planner (plan.go) parses the SELECT — the parser already refuses
//     joins, aggregates, DISTINCT, grouping and subqueries at their
//     keyword, and the planner turns that refusal into an
//     *UnenforceableError — refuses computed projections, whose cells
//     cannot be attributed to a single (provider, attribute) pair, and
//     resolves every referenced attribute to its governing policy tuple for
//     the request purpose — refusing purposes the policy never stated and
//     requester classes the policy does not admit. A top-level equality on
//     an Indexed column becomes a Rows.Probe; the shortcut is declined for
//     columns whose attribute has a generalization hierarchy (as
//     Source.Generalizer reports): the index matches raw values, and the
//     physical plan must not change the relation. The planner also binds
//     every WHERE and ORDER BY column reference to its schema index and
//     resolves each column's degradation once, so rows are enforced
//     without name lookups.
//   - The executor (exec.go) scans the base table and materializes, per
//     row, the view the provider's preferences permit: rows whose
//     provenance is missing or whose provider would be violated on
//     visibility are suppressed whole; cells held past the preference's
//     retention window are refused (NULL); cells are generalized to the
//     minimum of the policy's and the preference's granularity through the
//     attribute's hierarchy. WHERE, ORDER BY and the projection all
//     evaluate over that disclosed view, so no raw value can leak through
//     filtering or ordering.
//   - EXPLAIN (explain.go) traces every suppression, generalization and
//     retention refusal back to the violating (pref, policy) tuple pair.
//
// Per-row checks reuse the columnar compilation of internal/core: the
// planner resolves each attribute to a core.PolicyTupleRef once, and the
// executor folds preference minima via core.BindingFor — an id-indexed
// walk over the provider's compiled columns with precomputed covered-offset
// lists, for policies of any width. The fold keeps the binding tuples' positions; core.BindingTuple builds the
// tuples only for EXPLAIN. The executor keeps its per-row state in
// per-query scratch, so a row that is suppressed or fails WHERE allocates
// nothing; only kept rows get cells of their own.
package query
