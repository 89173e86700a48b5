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

// ExportCSV writes rows as CSV under a header row of column names; NULL
// cells are written empty, the form ReadCSV reads back as NULL.
func ExportCSV(w io.Writer, columns []string, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(columns); err != nil {
		return fmt.Errorf("relational: csv export: %w", err)
	}
	record := make([]string, len(columns))
	for _, row := range rows {
		for i, v := range row {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.Display()
			}
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("relational: csv export: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
