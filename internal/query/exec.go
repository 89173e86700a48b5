package query

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/relational"
)

// rowEnv resolves column references against one disclosed row.
type rowEnv struct {
	plan *plan
	row  relational.Row
}

// Col implements relational.Env over the disclosed view. The parser
// lower-cases every column reference, so name is already in the form the
// planner keyed env by.
func (e rowEnv) Col(name string) (relational.Value, error) {
	if idx, ok := e.plan.env[name]; ok {
		return e.row[idx], nil
	}
	return relational.Null(), &DeniedError{Attribute: name, Reason: "column not resolved at plan time"}
}

// outRow is one surviving row awaiting ordering and windowing.
type outRow struct {
	id    relational.RowID
	keys  []relational.Value
	cells []relational.Value
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
	bindings := make([]core.PrefBinding, len(p.uses))
	visit := func(id relational.RowID, raw relational.Row, provider string, inserted time.Time) {
		res.Stats.RowsScanned++
		if r := e.enforceRow(p, id, raw, provider, inserted, bindings, res); r != nil {
			rows = append(rows, *r)
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

// enforceRow applies the four dimensions to one stored row. It returns nil
// when the row is suppressed or fails WHERE over the disclosed view.
func (e *Engine) enforceRow(p *plan, id relational.RowID, raw relational.Row, provider string, inserted time.Time, bindings []core.PrefBinding, res *Result) *outRow {
	// Provenance: a row the store cannot attribute to a registered provider
	// cannot be checked against anyone's preferences, so it is withheld.
	if provider == "" || raw[p.provIdx].IsNull() {
		res.Stats.RowsSuppressed++
		res.Explain.suppress(id, provider, "row has no attributable provider")
		return nil
	}
	prefs, compiled, ok := e.src.Provider(provider)
	if !ok {
		res.Stats.RowsSuppressed++
		res.Explain.suppress(id, provider, "provider is not registered")
		return nil
	}

	// Visibility: if the requester's class exceeds what any referenced
	// attribute's covering preference admits, disclosing — or even filtering
	// on — the row would violate the provider. The whole row is suppressed.
	suppressed := false
	for i := range p.uses {
		u := &p.uses[i]
		bindings[i] = e.asr.BindingFor(prefs, compiled, u.ref)
		b := &bindings[i]
		if b.Found && p.req.Visibility > b.V {
			suppressed = true
			pref := b.VPref // copy: b aliases the per-query scratch slice
			res.Explain.violation(Trace{
				Row: id, Provider: provider, Column: u.col, Attribute: u.col,
				Action: ActionSuppress, Dimension: "visibility", Granted: b.V,
				Pref: &pref, PrefImplicit: b.VImplicit, Policy: &u.ref.Tuple,
			})
		}
	}
	if suppressed {
		res.Stats.RowsSuppressed++
		return nil
	}

	// Materialize the disclosed view of the referenced cells: retention
	// refusal first (an expired datum discloses nothing), then granularity
	// degradation to the minimum of policy grant and preference.
	disc := make(relational.Row, len(raw))
	var pending []Trace
	generalized, expired := 0, 0
	for i := range p.uses {
		u := &p.uses[i]
		b := &bindings[i]
		cell := raw[u.idx]
		grantedR := u.ref.Tuple.Retention
		if b.Found && b.R < grantedR {
			grantedR = b.R
		}
		if e.src.Expired(grantedR, inserted) {
			disc[u.idx] = relational.Null()
			if u.projected {
				expired++
				t := Trace{
					Row: id, Provider: provider, Column: u.col, Attribute: u.col,
					Action: ActionExpire, Dimension: "retention", Granted: grantedR,
					Policy: &u.ref.Tuple,
				}
				if b.Found && b.R < u.ref.Tuple.Retention {
					pref := b.RPref
					t.Pref, t.PrefImplicit = &pref, b.RImplicit
				} else {
					t.Reason = "past the policy's retention window"
				}
				pending = append(pending, t)
			}
			continue
		}
		grantedG := u.ref.Tuple.Granularity
		if b.Found && b.G < grantedG {
			grantedG = b.G
		}
		out := e.src.Generalize(u.col, cell, grantedG)
		disc[u.idx] = out
		if u.projected && !sameValue(cell, out) {
			generalized++
			t := Trace{
				Row: id, Provider: provider, Column: u.col, Attribute: u.col,
				Action: ActionGeneralize, Dimension: "granularity", Granted: grantedG,
				Policy: &u.ref.Tuple,
			}
			if b.Found && b.G < u.ref.Tuple.Granularity {
				pref := b.GPref
				t.Pref, t.PrefImplicit = &pref, b.GImplicit
			} else {
				t.Reason = "policy grants partial granularity"
			}
			pending = append(pending, t)
		}
	}

	// WHERE runs over the disclosed view: a predicate a degraded value
	// cannot decide (generalized text vs a numeric bound, an expired NULL)
	// simply does not match — withheld data never drives an answer.
	env := rowEnv{plan: p, row: disc}
	if p.where != nil {
		match, err := relational.Truthy(p.where, env)
		if err != nil || !match {
			return nil
		}
	}
	res.Stats.RowsMatched++
	res.Stats.CellsGeneralized += generalized
	res.Stats.CellsExpired += expired
	res.Explain.violations(pending)

	out := &outRow{id: id, cells: make([]relational.Value, len(p.items))}
	for i, it := range p.items {
		out.cells[i] = disc[p.uses[it.use].idx]
	}
	if len(p.orderBy) > 0 {
		out.keys = make([]relational.Value, len(p.orderBy))
		for i, o := range p.orderBy {
			v, err := o.Expr.Eval(env)
			if err != nil {
				v = relational.Null()
			}
			out.keys[i] = v
		}
	}
	return out
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
