// Package repro is a from-scratch Go reproduction of "Quantifying Privacy
// Violations" (Banerjee, Karimi Adl, Wu & Barker, Secure Data Management
// workshop at VLDB 2011, LNCS 6933): the four-dimensional privacy taxonomy,
// the violation / severity / default model (Defs. 1-5, Eqs. 12-16, 25-31),
// an α-PPDB prototype over a from-scratch relational store whose only read
// path enforces every answered cell per datum, and the full experiment
// suite.
//
// Commands: cmd/experiments regenerates every table and figure,
// cmd/ppdbaudit audits a policy/preference corpus, cmd/ppdbsim runs the
// Westin-population expansion simulation, cmd/whatif prices a policy
// change (Eq. 31), cmd/ppdbserver serves the PPDB over HTTP, and
// cmd/ppdblint runs the repo-specific static-analysis suite that gates
// `make check` (e.g. `ppdblint -checker lockcheck ./internal/ppdb/...`).
//
// See README.md for the tour and DESIGN.md for the system inventory,
// experiment index and the static-analysis invariants (§7).
package repro
