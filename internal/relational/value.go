// Package relational is the vocabulary the paper's data table — "the data
// table of private information T = {t_1 … t_n}" of Sec. 4 — is written in,
// built from scratch on the standard library: typed values, rows and
// schemas, CSV import/export, an expression language and a parser for the
// SELECT subset the enforcing planner in internal/query can check per
// datum (one table, plain-column projections, WHERE, ORDER BY,
// LIMIT/OFFSET), plus CREATE TABLE, the form snapshots store schemas in.
// Joins, DISTINCT, grouping, aggregates and IN subqueries are refused at
// their keyword with an *UnsupportedError naming the construct. There is no
// table, executor or DML here: internal/ppdb stores the rows, and
// internal/query is the only reader of them through SQL.
package relational

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind int

// Value kinds. Null is the SQL NULL; comparisons with NULL yield NULL-ish
// (false) semantics at the predicate layer.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindText:
		return "text"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Row is one tuple t_i of the data table.
type Row []Value

// RowID identifies a stored row for its lifetime; IDs are never reused.
type RowID int64

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text returns a string value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; ok is false for non-integers.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the value as float64, coercing integers; ok is false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsText returns the string payload; ok is false for non-text values.
func (v Value) AsText() (string, bool) { return v.s, v.kind == KindText }

// AsBool returns the boolean payload; ok is false for non-bool values.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// String renders the value in SQL-literal style.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("value(kind=%d)", int(v.kind))
	}
}

// Display renders the value for tabular output (no quoting).
func (v Value) Display() string {
	if v.kind == KindText {
		return v.s
	}
	return v.String()
}

// numeric reports whether the value is int or float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare's errors are built once: an enforced scan can hit an
// undecidable comparison on every row it reads (generalized text against a
// numeric bound), so formatting one per call would allocate per row.
var (
	errCompareNull = errors.New("relational: cannot compare NULL")
	// errCompareKinds[a][b] refuses comparing kind a with kind b.
	errCompareKinds = func() (errs [KindBool + 1][KindBool + 1]error) {
		for a := range errs {
			for b := range errs[a] {
				if a == b {
					errs[a][b] = fmt.Errorf("relational: cannot compare %s values", Kind(a))
				} else {
					errs[a][b] = fmt.Errorf("relational: cannot compare %s with %s", Kind(a), Kind(b))
				}
			}
		}
		return errs
	}()
)

// Compare orders two values: -1, 0, +1. Integers and floats compare
// numerically; text compares lexicographically; bools false < true. NULL or
// mixed non-numeric kinds are an error.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, errCompareNull
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, nil
			case a.i > b.i:
				return 1, nil
			}
			return 0, nil
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind != b.kind {
		return 0, errCompareKinds[a.kind][b.kind]
	}
	switch a.kind {
	case KindText:
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		}
		return 0, nil
	default:
		return 0, errCompareKinds[a.kind][b.kind]
	}
}

// Equal reports whether two values are equal under Compare semantics; NULL
// equals nothing (including NULL), mismatched kinds are unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key renders a value for index hashing; kind-prefixed so Int(1) and
// Text("1") hash differently while Int(1) and Float(1) collide (they are
// Compare-equal).
func (v Value) Key() string {
	if f, ok := v.AsFloat(); ok {
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	switch v.kind {
	case KindNull:
		return "∅"
	case KindText:
		return "t:" + v.s
	case KindBool:
		if v.b {
			return "b:1"
		}
		return "b:0"
	default:
		return "?:" + v.String()
	}
}
