package query

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/relational"
)

// outRow is one surviving row awaiting ordering and windowing.
type outRow struct {
	id    relational.RowID
	keys  []relational.Value
	cells []relational.Value
}

// scratch is one query's per-row working state, overwritten for every row
// the scan visits: the preference binding of each referenced column, the
// disclosed row, and the traces a row's cells produce before WHERE decides
// whether the row is kept. A row that is suppressed or fails WHERE
// therefore allocates nothing; only the rows the query keeps get their own
// cells. It is also the relational.Env WHERE and ORDER BY evaluate in.
type scratch struct {
	bindings []core.PrefBinding
	disc     relational.Row
	pending  []Trace
}

// Col implements relational.Env. The planner binds every column reference
// to a schema index (boundCol reads disc directly), so only an unbound
// reference could reach here, and the planner leaves none.
func (sc *scratch) Col(name string) (relational.Value, error) {
	return relational.Null(), &DeniedError{Attribute: name, Reason: "column not resolved at plan time"}
}

// run executes a validated plan: scan → per-row enforcement (suppress /
// expire / generalize into a disclosed view) → WHERE and ORDER BY over that
// view → OFFSET/LIMIT → projection. Rows are visited in ascending row-id
// order and ties sort by row id, so the answer — and the EXPLAIN trace —
// is deterministic.
func (e *Engine) run(p *plan) *Result {
	res := &Result{Columns: make([]string, len(p.items))}
	for i, it := range p.items {
		res.Columns[i] = it.name
	}
	res.IndexScan = p.useIdx
	if p.req.Explain {
		res.Explain = newExplain(p)
	}

	var rows []outRow
	sc := &scratch{
		bindings: make([]core.PrefBinding, len(p.uses)),
		disc:     make(relational.Row, p.schema.Len()),
	}
	visit := func(id relational.RowID, raw relational.Row, provider string, inserted time.Time) {
		res.Stats.RowsScanned++
		if r, ok := e.enforceRow(p, sc, id, raw, provider, inserted, res); ok {
			rows = append(rows, r)
		}
	}
	if p.useIdx {
		p.rows.Probe(p.idxCol, p.idxVal, visit)
	} else {
		p.rows.Scan(visit)
	}

	sortRows(rows, p.orderBy)
	lo := p.offset
	if lo > len(rows) {
		lo = len(rows)
	}
	hi := len(rows)
	// Compare the limit with the rows left rather than computing
	// offset+limit, which overflows for LIMITs near the int maximum.
	if p.limit >= 0 && p.limit < hi-lo {
		hi = lo + p.limit
	}
	res.Rows = make([][]relational.Value, 0, hi-lo)
	for _, r := range rows[lo:hi] {
		res.Rows = append(res.Rows, r.cells)
	}
	res.Stats.RowsReturned = len(res.Rows)
	return res
}

// enforceRow applies the four dimensions to one stored row. It reports
// false when the row is suppressed or fails WHERE over the disclosed view.
// Traces are built only when EXPLAIN is on.
func (e *Engine) enforceRow(p *plan, sc *scratch, id relational.RowID, raw relational.Row, provider string, inserted time.Time, res *Result) (outRow, bool) {
	x := res.Explain
	// Provenance: a row the store cannot attribute to a registered provider
	// cannot be checked against anyone's preferences, so it is withheld.
	if provider == "" || raw[p.provIdx].IsNull() {
		res.Stats.RowsSuppressed++
		x.suppress(id, provider, "row has no attributable provider")
		return outRow{}, false
	}
	prefs, compiled, ok := e.src.Provider(provider)
	if !ok {
		res.Stats.RowsSuppressed++
		x.suppress(id, provider, "provider is not registered")
		return outRow{}, false
	}

	// Visibility: if the requester's class exceeds what any referenced
	// attribute's covering preference admits, disclosing — or even filtering
	// on — the row would violate the provider. The whole row is suppressed;
	// without EXPLAIN the first violated attribute settles it.
	suppressed := false
	for i := range p.uses {
		u := &p.uses[i]
		b := &sc.bindings[i]
		*b = e.asr.BindingFor(prefs, compiled, u.ref)
		if !b.Found || p.req.Visibility <= b.V {
			continue
		}
		suppressed = true
		if x == nil {
			break
		}
		pref := e.asr.BindingTuple(prefs, compiled, b.VAt)
		x.violation(Trace{
			Row: id, Provider: provider, Column: u.col, Attribute: u.col,
			Action: ActionSuppress, Dimension: "visibility", Granted: b.V,
			Pref: &pref, PrefImplicit: b.VImplicit, Policy: &u.ref.Tuple,
		})
	}
	if suppressed {
		res.Stats.RowsSuppressed++
		return outRow{}, false
	}

	// Materialize the disclosed view of the referenced cells: retention
	// refusal first (an expired datum discloses nothing), then granularity
	// degradation to the minimum of policy grant and preference.
	disc := sc.disc
	sc.pending = sc.pending[:0]
	generalized, expired := 0, 0
	for i := range p.uses {
		u := &p.uses[i]
		b := &sc.bindings[i]
		cell := raw[u.idx]
		grantedR := u.ref.Tuple.Retention
		if b.Found && b.R < grantedR {
			grantedR = b.R
		}
		if e.src.Expired(grantedR, inserted) {
			disc[u.idx] = relational.Null()
			if u.projected {
				expired++
				if x != nil {
					t := Trace{
						Row: id, Provider: provider, Column: u.col, Attribute: u.col,
						Action: ActionExpire, Dimension: "retention", Granted: grantedR,
						Policy: &u.ref.Tuple,
					}
					if b.Found && b.R < u.ref.Tuple.Retention {
						pref := e.asr.BindingTuple(prefs, compiled, b.RAt)
						t.Pref, t.PrefImplicit = &pref, b.RImplicit
					} else {
						t.Reason = "past the policy's retention window"
					}
					sc.pending = append(sc.pending, t)
				}
			}
			continue
		}
		grantedG := u.ref.Tuple.Granularity
		if b.Found && b.G < grantedG {
			grantedG = b.G
		}
		out := u.gen.Generalize(cell, grantedG)
		disc[u.idx] = out
		if u.projected && !sameValue(cell, out) {
			generalized++
			if x != nil {
				t := Trace{
					Row: id, Provider: provider, Column: u.col, Attribute: u.col,
					Action: ActionGeneralize, Dimension: "granularity", Granted: grantedG,
					Policy: &u.ref.Tuple,
				}
				if b.Found && b.G < u.ref.Tuple.Granularity {
					pref := e.asr.BindingTuple(prefs, compiled, b.GAt)
					t.Pref, t.PrefImplicit = &pref, b.GImplicit
				} else {
					t.Reason = "policy grants partial granularity"
				}
				sc.pending = append(sc.pending, t)
			}
		}
	}

	// WHERE runs over the disclosed view: a predicate a degraded value
	// cannot decide (generalized text vs a numeric bound, an expired NULL)
	// simply does not match — withheld data never drives an answer.
	if p.where != nil {
		match, err := relational.Truthy(p.where, sc)
		if err != nil || !match {
			return outRow{}, false
		}
	}
	res.Stats.RowsMatched++
	res.Stats.CellsGeneralized += generalized
	res.Stats.CellsExpired += expired
	x.violations(sc.pending)

	// The kept row's cells and ORDER BY keys share one allocation.
	vals := make([]relational.Value, len(p.items)+len(p.orderBy))
	out := outRow{id: id, cells: vals[:len(p.items):len(p.items)], keys: vals[len(p.items):]}
	for i, it := range p.items {
		out.cells[i] = disc[p.uses[it.use].idx]
	}
	for i, o := range p.orderBy {
		v, err := o.Expr.Eval(sc)
		if err != nil {
			v = relational.Null()
		}
		out.keys[i] = v
	}
	return out, true
}

// sameValue compares raw and disclosed cells, treating NULL = NULL (the
// degradation check needs identity, not SQL equality).
func sameValue(a, b relational.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return relational.Equal(a, b)
}

// sortRows orders surviving rows by the ORDER BY keys over the disclosed
// view. Values of different kinds order by kind rank (NULL < bool < number
// < text) so mixed generalized/exact columns still sort totally; ties
// fall back to ascending row id for determinism.
func sortRows(rows []outRow, order []relational.OrderItem) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range order {
			c := compareTotal(rows[i].keys[k], rows[j].keys[k])
			if c == 0 {
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return rows[i].id < rows[j].id
	})
}

// kindRank buckets values for the total order: NULL, bool, numeric, text.
func kindRank(v relational.Value) int {
	switch v.Kind() {
	case relational.KindNull:
		return 0
	case relational.KindBool:
		return 1
	case relational.KindInt, relational.KindFloat:
		return 2
	default:
		return 3
	}
}

// compareTotal is relational.Compare extended to a total order.
func compareTotal(a, b relational.Value) int {
	ra, rb := kindRank(a), kindRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if ra == 0 {
		return 0
	}
	c, err := relational.Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}
