package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// colUse is one referenced column resolved against the table: its schema
// position and the policy tuple governing the attribute it discloses — the
// attribute of its own canonical name — for the request purpose (resolved
// once here, so the per-row loop does no purpose matching).
type colUse struct {
	col       string // canonical column name, which is also the attribute
	idx       int    // schema column index
	ref       core.PolicyTupleRef
	gen       Generalizer // the attribute's degradation, resolved once
	hier      bool        // the attribute has a generalization hierarchy
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
	table   string
	rows    Rows
	schema  *relational.Schema
	provIdx int // schema index of the provider-key column

	items   []planItem
	uses    []colUse
	where   relational.Expr
	orderBy []relational.OrderItem
	limit   int
	offset  int

	// Index scan: a top-level equality on an indexed column narrows the
	// scan to Rows.Probe.
	idxCol int
	idxVal relational.Value
	useIdx bool
}

// Plan parses, validates and policy-gates one request. Errors are
// *UnenforceableError for statements per-datum enforcement cannot prove
// conformant, *DeniedError for purpose/visibility refusals, and plain
// errors for malformed input.
func (e *Engine) Plan(req Request) (*plan, error) {
	st, err := relational.Parse(req.SQL)
	var unsup *relational.UnsupportedError
	if errors.As(err, &unsup) {
		return nil, unenforceable(unsup.Construct)
	}
	if err != nil {
		return nil, err
	}
	sel, ok := st.(relational.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("query: only SELECT is allowed through the enforced path")
	}

	tname := sel.From.Table
	rows, ok := e.src.Table(tname)
	if !ok {
		return nil, fmt.Errorf("query: table %q is not registered", tname)
	}
	p := &plan{
		req:    req,
		table:  tname,
		rows:   rows,
		schema: rows.Schema(),
		limit:  sel.Limit,
		offset: sel.Offset,
	}
	p.provIdx, _ = p.schema.ColumnIndex(rows.ProviderCol())

	alias := sel.From.Alias        // the parser defaults it to the table name
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
			for i := 0; i < p.schema.Len(); i++ {
				name := p.schema.Column(i).Name
				ui, err := resolve(name, true)
				if err != nil {
					return nil, err
				}
				p.items = append(p.items, planItem{name: name, use: ui})
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
	// columns, each bound here to its schema index.
	bind := func(name string) (int, error) {
		ui, err := resolve(name, false)
		if err != nil {
			return 0, err
		}
		return p.uses[ui].idx, nil
	}
	if sel.Where != nil {
		if p.where, err = bindCols(sel.Where, bind); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if o.Expr, err = bindCols(o.Expr, bind); err != nil {
			return nil, err
		}
		p.orderBy = append(p.orderBy, o)
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
		u.gen, u.hier = e.src.Generalizer(u.col)
	}

	p.pickIndex()
	return p, nil
}

// unenforceable explains a construct the parser refused: why per-datum
// enforcement cannot prove its answer conformant. Aggregates are named by
// their function.
func unenforceable(construct string) *UnenforceableError {
	reason := "aggregates mix cells across providers"
	switch construct {
	case "JOIN":
		reason = "joined cells cannot be attributed to a single provider row"
	case "DISTINCT":
		reason = "deduplication mixes cells across providers"
	case "GROUP BY", "HAVING":
		reason = "grouped cells aggregate across providers"
	case "IN (SELECT …)":
		reason = "subqueries read data outside the gated table"
	}
	return &UnenforceableError{Construct: construct, Reason: reason}
}

// boundCol is a column reference bound at plan time to its schema index:
// it reads the executor's disclosed row directly, so evaluating WHERE and
// ORDER BY looks up no names per row.
type boundCol struct {
	relational.ColRef
	idx int
}

// Eval implements relational.Expr over the disclosed row.
func (c boundCol) Eval(env relational.Env) (relational.Value, error) {
	return env.(*scratch).disc[c.idx], nil
}

// bindCols copies an expression with every column reference resolved to a
// boundCol, rejecting nodes whose evaluation cannot be attributed per
// datum. Columns resolve in first-appearance order, left to right.
func bindCols(ex relational.Expr, resolve func(string) (int, error)) (relational.Expr, error) {
	var err error
	switch x := ex.(type) {
	case relational.ColRef:
		idx, err := resolve(x.Name)
		return boundCol{ColRef: x, idx: idx}, err
	case relational.Literal:
		return x, nil
	case relational.Binary:
		if x.L, err = bindCols(x.L, resolve); err != nil {
			return nil, err
		}
		x.R, err = bindCols(x.R, resolve)
		return x, err
	case relational.Unary:
		x.X, err = bindCols(x.X, resolve)
		return x, err
	case relational.IsNull:
		x.X, err = bindCols(x.X, resolve)
		return x, err
	case relational.In:
		if x.X, err = bindCols(x.X, resolve); err != nil {
			return nil, err
		}
		list := make([]relational.Expr, len(x.List))
		for i, item := range x.List {
			if list[i], err = bindCols(item, resolve); err != nil {
				return nil, err
			}
		}
		x.List = list
		return x, nil
	default:
		return nil, &UnenforceableError{Construct: ex.String(), Reason: "unsupported expression"}
	}
}

// pickIndex looks for a top-level equality conjunct on an indexed column
// and, finding one, narrows the executor from a full scan to Rows.Probe.
// Columns whose attribute has a generalization hierarchy never qualify:
// the index matches raw stored values while WHERE evaluates the disclosed
// view, so a probe for a generalized label (`WHERE city = 'MA'` when
// 'Boston' discloses as 'MA') would miss rows a full scan answers — the
// physical plan must not change the relation. NULL literals never qualify
// either: the index keys NULLs together while `col = NULL` matches nothing,
// so a probe would count the NULL rows as scanned and make the stats
// depend on the plan.
func (p *plan) pickIndex() {
	for _, conj := range conjuncts(p.where) {
		bin, ok := conj.(relational.Binary)
		if !ok || bin.Op != relational.OpEq {
			continue
		}
		idx, val, ok := colEqLiteral(bin)
		if !ok || val.IsNull() {
			continue
		}
		if !p.rows.Indexed(idx) || slices.ContainsFunc(p.uses, func(u colUse) bool { return u.idx == idx && u.hier }) {
			continue
		}
		p.idxCol, p.idxVal, p.useIdx = idx, val, true
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

// colEqLiteral matches `col = literal` (either side) over bound columns
// and returns the column's schema index and the literal.
func colEqLiteral(bin relational.Binary) (int, relational.Value, bool) {
	if c, ok := bin.L.(boundCol); ok {
		if lit, ok := bin.R.(relational.Literal); ok {
			return c.idx, lit.Val, true
		}
	}
	if c, ok := bin.R.(boundCol); ok {
		if lit, ok := bin.L.(relational.Literal); ok {
			return c.idx, lit.Val, true
		}
	}
	return 0, relational.Null(), false
}
