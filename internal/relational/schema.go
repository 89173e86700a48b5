package relational

import (
	"fmt"
	"strings"
)

// ColType is a column's declared type.
type ColType int

// Declared column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeText
	TypeBool
)

// String names the column type in SQL spelling.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// ParseColType resolves a SQL type name (with common aliases).
func ParseColType(s string) (ColType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "STRING", "CHAR":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("relational: unknown column type %q", s)
	}
}

// accepts reports whether a value may be stored in a column of this type.
// NULL acceptance is governed by NotNull, not the type.
func (t ColType) accepts(v Value) bool {
	switch t {
	case TypeInt:
		return v.kind == KindInt
	case TypeFloat:
		return v.kind == KindFloat || v.kind == KindInt // widen int → float
	case TypeText:
		return v.kind == KindText
	case TypeBool:
		return v.kind == KindBool
	default:
		return false
	}
}

// Column describes one attribute A^j of the relation schema (Sec. 4).
type Column struct {
	Name       string
	Type       ColType
	NotNull    bool
	PrimaryKey bool
}

// Schema is the relation schema T(A^1 ∈ D^1, …, A^K ∈ D^K).
type Schema struct {
	cols   []Column
	byName map[string]int
	pk     int // index of primary key column, -1 if none
}

// NewSchema validates and builds a schema. Column names are case-insensitive
// and must be unique; at most one column may be the primary key (which is
// implicitly NOT NULL).
func NewSchema(cols []Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relational: schema needs at least one column")
	}
	s := &Schema{cols: make([]Column, len(cols)), byName: make(map[string]int, len(cols)), pk: -1}
	for i, c := range cols {
		name := strings.ToLower(strings.TrimSpace(c.Name))
		if name == "" {
			return nil, fmt.Errorf("relational: column %d has an empty name", i)
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("relational: duplicate column %q", name)
		}
		c.Name = name
		if c.PrimaryKey {
			if s.pk >= 0 {
				return nil, fmt.Errorf("relational: multiple primary keys (%q and %q)", s.cols[s.pk].Name, name)
			}
			s.pk = i
			c.NotNull = true
		}
		s.cols[i] = c
		s.byName[name] = i
	}
	return s, nil
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i'th column definition.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex resolves a column name (case-insensitive) to its position.
func (s *Schema) ColumnIndex(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(strings.TrimSpace(name))]
	return i, ok
}

// PrimaryKey returns the primary key column index, or -1.
func (s *Schema) PrimaryKey() int { return s.pk }

// CheckRow validates a row against the schema: arity, types, NOT NULL.
// It returns the row with integers widened to float for FLOAT columns.
func (s *Schema) CheckRow(row Row) (Row, error) {
	if len(row) != len(s.cols) {
		return nil, fmt.Errorf("relational: row has %d values, schema has %d columns", len(row), len(s.cols))
	}
	out := make(Row, len(row))
	copy(out, row)
	for i, c := range s.cols {
		v := out[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("relational: column %q is NOT NULL", c.Name)
			}
			continue
		}
		if !c.Type.accepts(v) {
			return nil, fmt.Errorf("relational: column %q (%s) cannot hold %s %s", c.Name, c.Type, v.Kind(), v)
		}
		if c.Type == TypeFloat && v.kind == KindInt {
			out[i] = Float(float64(v.i))
		}
	}
	return out, nil
}

// String renders the schema as a CREATE TABLE column list.
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		p := c.Name + " " + c.Type.String()
		if c.PrimaryKey {
			p += " PRIMARY KEY"
		} else if c.NotNull {
			p += " NOT NULL"
		}
		parts[i] = p
	}
	return strings.Join(parts, ", ")
}
