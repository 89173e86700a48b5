package relational

import (
	"errors"
	"fmt"
	"strings"
)

// Env resolves column references during expression evaluation. Names may be
// qualified ("t.col") or bare ("col"); bare names must be unambiguous.
type Env interface {
	Col(name string) (Value, error)
}

// Expr is a node of the expression AST.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(env Env) (Value, error)
	// String renders the expression in SQL-like syntax.
	String() string
}

// Literal is a constant value.
type Literal struct{ Val Value }

// Eval implements Expr.
func (l Literal) Eval(Env) (Value, error) { return l.Val, nil }

// String implements Expr.
func (l Literal) String() string { return l.Val.String() }

// ColRef references a column by (possibly qualified) name.
type ColRef struct{ Name string }

// Eval implements Expr.
func (c ColRef) Eval(env Env) (Value, error) { return env.Col(c.Name) }

// String implements Expr.
func (c ColRef) String() string { return c.Name }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpLike: "LIKE",
}

// String names the operator.
func (op BinOp) String() string {
	if n, ok := binOpNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// String implements Expr.
func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Evaluation errors are built once, like Compare's: an enforced scan
// evaluates WHERE over every row it discloses, and a predicate a degraded
// value cannot decide fails on each of them. The caller discards the error
// (the row simply does not match), so it names the failure, not the
// expression.
var (
	errLikeOperands  = errors.New("relational: LIKE needs text operands")
	errUnknownOp     = errors.New("relational: unknown operator")
	errAndOperands   = errors.New("relational: AND needs boolean operands")
	errOrOperands    = errors.New("relational: OR needs boolean operands")
	errDivByZero     = errors.New("relational: division by zero")
	errModByZero     = errors.New("relational: modulo by zero")
	errArithOperands = errors.New("relational: arithmetic needs numeric operands")
	errModOperands   = errors.New("relational: % needs integer operands")
	errNegate        = errors.New("relational: cannot negate a non-numeric value")
	errNotOperand    = errors.New("relational: NOT needs a boolean")
)

// Eval implements Expr. NULL operands propagate: any comparison or
// arithmetic with NULL yields NULL; AND/OR use three-valued shortcuts.
func (b Binary) Eval(env Env) (Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogic(env)
	}
	l, err := b.L.Eval(env)
	if err != nil {
		return Null(), err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		c, err := Compare(l, r)
		if err != nil {
			return Null(), err
		}
		switch b.Op {
		case OpEq:
			return Bool(c == 0), nil
		case OpNe:
			return Bool(c != 0), nil
		case OpLt:
			return Bool(c < 0), nil
		case OpLe:
			return Bool(c <= 0), nil
		case OpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(b.Op, l, r)
	case OpLike:
		ls, ok1 := l.AsText()
		rs, ok2 := r.AsText()
		if !ok1 || !ok2 {
			return Null(), errLikeOperands
		}
		return Bool(likeMatch(ls, rs)), nil
	default:
		return Null(), errUnknownOp
	}
}

// logicOperandErr refuses a non-boolean operand of AND or OR.
func (b Binary) logicOperandErr() error {
	if b.Op == OpAnd {
		return errAndOperands
	}
	return errOrOperands
}

func (b Binary) evalLogic(env Env) (Value, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return Null(), err
	}
	lb, lok := l.AsBool()
	if !lok && !l.IsNull() {
		return Null(), b.logicOperandErr()
	}
	// Short circuits.
	if lok {
		if b.Op == OpAnd && !lb {
			return Bool(false), nil
		}
		if b.Op == OpOr && lb {
			return Bool(true), nil
		}
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return Null(), err
	}
	rb, rok := r.AsBool()
	if !rok && !r.IsNull() {
		return Null(), b.logicOperandErr()
	}
	switch {
	case lok && rok:
		if b.Op == OpAnd {
			return Bool(lb && rb), nil
		}
		return Bool(lb || rb), nil
	case rok: // l is NULL
		if b.Op == OpAnd && !rb {
			return Bool(false), nil
		}
		if b.Op == OpOr && rb {
			return Bool(true), nil
		}
	}
	return Null(), nil
}

func evalArith(op BinOp, l, r Value) (Value, error) {
	li, lInt := l.AsInt()
	ri, rInt := r.AsInt()
	if lInt && rInt {
		switch op {
		case OpAdd:
			return Int(li + ri), nil
		case OpSub:
			return Int(li - ri), nil
		case OpMul:
			return Int(li * ri), nil
		case OpDiv:
			if ri == 0 {
				return Null(), errDivByZero
			}
			return Int(li / ri), nil
		case OpMod:
			if ri == 0 {
				return Null(), errModByZero
			}
			return Int(li % ri), nil
		default:
			return Null(), errUnknownOp
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Null(), errArithOperands
	}
	switch op {
	case OpAdd:
		return Float(lf + rf), nil
	case OpSub:
		return Float(lf - rf), nil
	case OpMul:
		return Float(lf * rf), nil
	case OpDiv:
		//lint:ignore floatcmp SQL division is undefined only at exactly zero; a tolerance would reject tiny legitimate divisors
		if rf == 0 {
			return Null(), errDivByZero
		}
		return Float(lf / rf), nil
	case OpMod:
		return Null(), errModOperands
	default:
		return Null(), errUnknownOp
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-sensitive.
func likeMatch(s, pattern string) bool {
	return likeRec([]rune(s), []rune(pattern))
}

func likeRec(s, p []rune) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// Unary applies NOT or arithmetic negation.
type Unary struct {
	Neg bool // true: -x; false: NOT x
	X   Expr
}

// String implements Expr.
func (u Unary) String() string {
	if u.Neg {
		return fmt.Sprintf("(-%s)", u.X)
	}
	return fmt.Sprintf("(NOT %s)", u.X)
}

// Eval implements Expr.
func (u Unary) Eval(env Env) (Value, error) {
	v, err := u.X.Eval(env)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	if u.Neg {
		if i, ok := v.AsInt(); ok {
			return Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return Float(-f), nil
		}
		return Null(), errNegate
	}
	b, ok := v.AsBool()
	if !ok {
		return Null(), errNotOperand
	}
	return Bool(!b), nil
}

// IsNull tests x IS [NOT] NULL.
type IsNull struct {
	Not bool
	X   Expr
}

// String implements Expr.
func (n IsNull) String() string {
	if n.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// Eval implements Expr.
func (n IsNull) Eval(env Env) (Value, error) {
	v, err := n.X.Eval(env)
	if err != nil {
		return Null(), err
	}
	return Bool(v.IsNull() != n.Not), nil
}

// In tests membership of X in a literal list.
type In struct {
	Not  bool
	X    Expr
	List []Expr
}

// String implements Expr.
func (in In) String() string {
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	op := "IN"
	if in.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.X, op, strings.Join(items, ", "))
}

// Eval implements Expr.
func (in In) Eval(env Env) (Value, error) {
	x, err := in.X.Eval(env)
	if err != nil {
		return Null(), err
	}
	if x.IsNull() {
		return Null(), nil
	}
	for _, e := range in.List {
		v, err := e.Eval(env)
		if err != nil {
			return Null(), err
		}
		if Equal(x, v) {
			return Bool(!in.Not), nil
		}
	}
	return Bool(in.Not), nil
}

// Truthy evaluates e as a predicate: NULL and false are both false.
func Truthy(e Expr, env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	return ok && b, nil
}
