package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// colUse is one referenced column resolved against the catalog: its schema
// position and the policy tuple governing the attribute it discloses — the
// attribute of its own canonical name — for the request purpose (resolved
// once here, so the per-row loop does no purpose matching).
type colUse struct {
	col       string // canonical column name, which is also the attribute
	idx       int    // schema column index
	ref       core.PolicyTupleRef
	projected bool
}

// planItem is one output column: its label and the colUse it discloses.
type planItem struct {
	name string
	use  int // index into plan.uses
}

// plan is a validated, policy-gated single-table SELECT ready to execute.
type plan struct {
	req     Request
	binding *TableBinding
	schema  *relational.Schema
	provIdx int // schema index of the provider-key column

	items   []planItem
	uses    []colUse
	where   relational.Expr
	orderBy []relational.OrderItem
	limit   int
	offset  int

	// env maps every accepted spelling (bare, table-qualified,
	// alias-qualified) of a referenced column to its schema index.
	env map[string]int

	// Index scan: a top-level equality on an indexed column narrows the
	// scan to Table.Lookup.
	idxCol string
	idxVal relational.Value
	useIdx bool
}

// Plan parses, validates and policy-gates one request. Errors are
// *UnenforceableError for statements per-datum enforcement cannot prove
// conformant, *DeniedError for purpose/visibility refusals, and plain
// errors for malformed input.
func (e *Engine) Plan(req Request) (*plan, error) {
	st, err := relational.Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(relational.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("query: only SELECT is allowed through the enforced path")
	}
	if len(sel.Joins) > 0 {
		return nil, &UnenforceableError{Construct: "JOIN", Reason: "joined cells cannot be attributed to a single provider row"}
	}
	if sel.Distinct {
		return nil, &UnenforceableError{Construct: "DISTINCT", Reason: "deduplication mixes cells across providers"}
	}
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, &UnenforceableError{Construct: "GROUP BY", Reason: "grouped cells aggregate across providers"}
	}

	b, ok := e.cat.Lookup(sel.From.Table)
	if !ok {
		return nil, fmt.Errorf("query: table %q is not registered", sel.From.Table)
	}
	p := &plan{
		req:     req,
		binding: b,
		schema:  b.Table.Schema(),
		where:   sel.Where,
		orderBy: sel.OrderBy,
		limit:   sel.Limit,
		offset:  sel.Offset,
		env:     make(map[string]int),
	}
	p.provIdx, _ = p.schema.ColumnIndex(b.ProviderCol)

	tname := strings.ToLower(b.Table.Name())
	alias := strings.ToLower(sel.From.Alias)
	useIdx := make(map[string]int) // canonical column → index into p.uses
	resolve := func(name string, projected bool) (int, error) {
		col := privacy.CanonAttr(name)
		if dot := strings.LastIndex(col, "."); dot >= 0 {
			qual := col[:dot]
			if qual != tname && qual != alias {
				return 0, fmt.Errorf("query: unknown table qualifier %q in column %q", qual, name)
			}
			col = col[dot+1:]
		}
		idx, ok := p.schema.ColumnIndex(col)
		if !ok {
			return 0, fmt.Errorf("query: table %q has no column %q", tname, name)
		}
		ui, seen := useIdx[col]
		if !seen {
			ui = len(p.uses)
			useIdx[col] = ui
			p.uses = append(p.uses, colUse{col: col, idx: idx})
			p.env[col] = idx
			p.env[tname+"."+col] = idx
			if alias != "" {
				p.env[alias+"."+col] = idx
			}
		}
		if projected {
			p.uses[ui].projected = true
		}
		return ui, nil
	}

	// Projection: plain column references only — every output cell must
	// bind to exactly one (provider, attribute) datum.
	for _, it := range sel.Items {
		if it.Star {
			for _, c := range p.schema.Columns() {
				ui, err := resolve(c.Name, true)
				if err != nil {
					return nil, err
				}
				p.items = append(p.items, planItem{name: c.Name, use: ui})
			}
			continue
		}
		cr, ok := it.Expr.(relational.ColRef)
		if !ok {
			return nil, &UnenforceableError{
				Construct: it.Expr.String(),
				Reason:    "projections must be plain columns so each answer cell binds to one (provider, attribute) datum",
			}
		}
		ui, err := resolve(cr.Name, true)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = p.uses[ui].col
		}
		p.items = append(p.items, planItem{name: name, use: ui})
	}

	// WHERE and ORDER BY may use expressions, but only over resolvable
	// columns — and never aggregates or subqueries.
	if sel.Where != nil {
		if err := collectCols(sel.Where, resolve); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if err := collectCols(o.Expr, resolve); err != nil {
			return nil, err
		}
	}

	// Policy gate, in sorted attribute order for deterministic denials:
	// every referenced attribute needs a policy tuple for the purpose, and
	// that tuple must admit the requester's visibility class.
	order := make([]int, len(p.uses))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return p.uses[order[i]].col < p.uses[order[j]].col })
	pr := req.Purpose.Normalize()
	for _, i := range order {
		u := &p.uses[i]
		ref, found := e.asr.FindPolicyTuple(u.col, pr)
		if !found {
			return nil, &DeniedError{Attribute: u.col, Reason: fmt.Sprintf("no policy tuple for purpose %q", pr)}
		}
		if ref.Tuple.Visibility < req.Visibility {
			return nil, &DeniedError{
				Attribute: u.col,
				Reason: fmt.Sprintf("policy visibility %d does not admit requester class %d",
					ref.Tuple.Visibility, req.Visibility),
			}
		}
		u.ref = ref
	}

	p.pickIndex(e.src.HasHierarchy)
	return p, nil
}

// collectCols walks an expression, resolving every column reference and
// rejecting nodes whose evaluation cannot be attributed per datum.
func collectCols(ex relational.Expr, resolve func(string, bool) (int, error)) error {
	switch x := ex.(type) {
	case relational.ColRef:
		_, err := resolve(x.Name, false)
		return err
	case relational.Literal:
		return nil
	case relational.Binary:
		if err := collectCols(x.L, resolve); err != nil {
			return err
		}
		return collectCols(x.R, resolve)
	case relational.Unary:
		return collectCols(x.X, resolve)
	case relational.IsNull:
		return collectCols(x.X, resolve)
	case relational.In:
		if err := collectCols(x.X, resolve); err != nil {
			return err
		}
		for _, item := range x.List {
			if err := collectCols(item, resolve); err != nil {
				return err
			}
		}
		return nil
	case relational.InSubquery:
		return &UnenforceableError{Construct: "IN (SELECT …)", Reason: "subqueries read data outside the gated table"}
	case relational.Agg:
		return &UnenforceableError{Construct: x.String(), Reason: "aggregates mix cells across providers"}
	default:
		return &UnenforceableError{Construct: ex.String(), Reason: "unsupported expression"}
	}
}

// pickIndex looks for a top-level equality conjunct on an indexed column
// and, finding one, narrows the executor from a full scan to Table.Lookup.
// Columns whose attribute has a generalization hierarchy never qualify:
// the index matches raw stored values while WHERE evaluates the disclosed
// view, so a probe for a generalized label (`WHERE city = 'MA'` when
// 'Boston' discloses as 'MA') would miss rows a full scan answers — the
// physical plan must not change the relation.
func (p *plan) pickIndex(hasHierarchy func(attr string) bool) {
	for _, conj := range conjuncts(p.where) {
		bin, ok := conj.(relational.Binary)
		if !ok || bin.Op != relational.OpEq {
			continue
		}
		col, val, ok := colEqLiteral(bin)
		if !ok {
			continue
		}
		idx, found := p.env[privacy.CanonAttr(col)]
		if !found {
			continue
		}
		name := p.schema.Column(idx).Name
		if !p.binding.Table.HasIndex(name) {
			continue
		}
		if hasHierarchy(name) {
			continue
		}
		p.idxCol, p.idxVal, p.useIdx = name, val, true
		return
	}
}

// conjuncts flattens a WHERE tree's top-level AND chain.
func conjuncts(ex relational.Expr) []relational.Expr {
	if ex == nil {
		return nil
	}
	if bin, ok := ex.(relational.Binary); ok && bin.Op == relational.OpAnd {
		return append(conjuncts(bin.L), conjuncts(bin.R)...)
	}
	return []relational.Expr{ex}
}

// colEqLiteral matches `col = literal` (either side) and returns the parts.
func colEqLiteral(bin relational.Binary) (string, relational.Value, bool) {
	if cr, ok := bin.L.(relational.ColRef); ok {
		if lit, ok := bin.R.(relational.Literal); ok {
			return cr.Name, lit.Val, true
		}
	}
	if cr, ok := bin.R.(relational.ColRef); ok {
		if lit, ok := bin.L.(relational.Literal); ok {
			return cr.Name, lit.Val, true
		}
	}
	return "", relational.Null(), false
}
