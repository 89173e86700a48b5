package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV decodes CSV data (with a header row) into typed rows matching the
// schema. Header names are matched to schema columns case-insensitively; all
// schema columns must be present. Cell text is converted to the column's
// declared type; empty cells become NULL.
func ReadCSV(schema *Schema, r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: csv header: %w", err)
	}
	// Map schema column → csv column.
	pos := make([]int, schema.Len())
	for i := range pos {
		pos[i] = -1
	}
	for ci, name := range header {
		if i, ok := schema.ColumnIndex(name); ok {
			pos[i] = ci
		}
	}
	for i, p := range pos {
		if p < 0 {
			return nil, fmt.Errorf("relational: csv is missing column %q", schema.Column(i).Name)
		}
	}
	var rows []Row
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, fmt.Errorf("relational: csv line %d: %w", line, err)
		}
		row := make(Row, schema.Len())
		for i := range row {
			cell := record[pos[i]]
			v, err := parseCell(cell, schema.Column(i).Type)
			if err != nil {
				return rows, fmt.Errorf("relational: csv line %d column %q: %w", line, schema.Column(i).Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// parseCell converts CSV text to a typed value; empty text is NULL.
func parseCell(cell string, ct ColType) (Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return Null(), nil
	}
	switch ct {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("bad integer %q", cell)
		}
		return Int(n), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null(), fmt.Errorf("bad float %q", cell)
		}
		return Float(f), nil
	case TypeBool:
		switch strings.ToLower(cell) {
		case "true", "t", "1", "yes":
			return Bool(true), nil
		case "false", "f", "0", "no":
			return Bool(false), nil
		default:
			return Null(), fmt.Errorf("bad boolean %q", cell)
		}
	default:
		return Text(cell), nil
	}
}

// ExportCSV renders rows under a header row of column names, one line per
// row, each cell in its literal form: NULL, TRUE or FALSE, a number in its
// shortest round-trip form (NaN, +Inf and -Inf included), or text as a
// double-quoted Go string literal. Quoting escapes every control byte, so
// a row is exactly one line and a comma inside text never separates
// cells. Unlike ReadCSV's input, nothing is trimmed and empty text stays
// distinct from NULL: ReadExportedCSV reads the rows back value for value.
// Snapshots store table rows in this form.
func ExportCSV(columns []string, rows []Row) []byte {
	b := append([]byte(strings.Join(columns, ",")), '\n')
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLiteral(b, v)
		}
		b = append(b, '\n')
	}
	return b
}

// ReadExportedCSV reads back rows ExportCSV rendered under columns. It
// accepts only what ExportCSV writes — that header, then one
// newline-terminated line per row whose every cell is the literal
// ExportCSV writes for its value — so anything it reads, ExportCSV renders
// back byte for byte. A number reads as an integer when it is written as
// one; typing cells by column and checking constraints is the caller's
// job (Schema.CheckRow widens integers in FLOAT columns).
func ReadExportedCSV(columns []string, data []byte) ([]Row, error) {
	header := strings.Join(columns, ",") + "\n"
	s, ok := strings.CutPrefix(string(data), header)
	if !ok {
		return nil, fmt.Errorf("relational: csv header is not %q", header[:len(header)-1])
	}
	var rows []Row
	for line := 2; s != ""; line++ {
		row := make(Row, len(columns))
		for i := range row {
			lit, rest := cutLiteral(s)
			v, err := parseLiteral(lit)
			if err != nil {
				return nil, fmt.Errorf("relational: csv line %d column %q: %w", line, columns[i], err)
			}
			sep := byte(',')
			if i == len(row)-1 {
				sep = '\n'
			}
			if rest == "" || rest[0] != sep {
				return nil, fmt.Errorf("relational: csv line %d: expected %q after column %q", line, sep, columns[i])
			}
			row[i], s = v, rest[1:]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// appendLiteral appends v's ExportCSV cell.
func appendLiteral(b []byte, v Value) []byte {
	if s, ok := v.AsText(); ok {
		return strconv.AppendQuote(b, s)
	}
	return append(b, v.String()...)
}

// cutLiteral splits the next cell off s: a quoted text literal up to its
// closing quote, anything else up to the next comma or newline.
func cutLiteral(s string) (lit, rest string) {
	if strings.HasPrefix(s, `"`) {
		if q, err := strconv.QuotedPrefix(s); err == nil {
			return q, s[len(q):]
		}
	}
	if i := strings.IndexAny(s, ",\n"); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// parseLiteral reads one ExportCSV cell, refusing any spelling other than
// the one appendLiteral writes for the value it denotes.
func parseLiteral(lit string) (Value, error) {
	v, err := Null(), error(nil)
	switch {
	case lit == "NULL":
	case lit == "TRUE", lit == "FALSE":
		v = Bool(lit == "TRUE")
	case strings.HasPrefix(lit, `"`):
		var s string
		s, err = strconv.Unquote(lit)
		v = Text(s)
	default:
		// "-0" is the float negative zero; no integer is written that way.
		if n, ierr := strconv.ParseInt(lit, 10, 64); ierr == nil && lit != "-0" {
			v = Int(n)
		} else {
			var f float64
			f, err = strconv.ParseFloat(lit, 64)
			v = Float(f)
		}
	}
	if err != nil || string(appendLiteral(nil, v)) != lit {
		return Null(), fmt.Errorf("%q is not a literal ExportCSV writes", lit)
	}
	return v, nil
}
