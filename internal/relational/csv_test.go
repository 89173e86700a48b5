package relational

import (
	"math"
	"strings"
	"testing"
)

// loadCSV reads CSV the way the store ingests it: ReadCSV types the cells
// and the schema's CheckRow enforces NOT NULL. Primary-key uniqueness is
// the store's to enforce (internal/ppdb).
func loadCSV(s *Schema, data string) ([]Row, error) {
	rows, err := ReadCSV(s, strings.NewReader(data))
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if rows[i], err = s.CheckRow(row); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func TestImportCSV(t *testing.T) {
	csvData := `name,id,weight,active
alice,1,61.5,true
bob,2,,false
carol,3,55,YES
`
	rows, err := loadCSV(personSchema(t), csvData)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("imported %d rows", len(rows))
	}
	bob := rows[1]
	if id, _ := bob[0].AsInt(); id != 2 {
		t.Fatalf("row 2 = %v, want bob", bob)
	}
	if !bob[2].IsNull() {
		t.Errorf("empty cell should be NULL: %v", bob[2])
	}
	if b, _ := bob[3].AsBool(); b {
		t.Errorf("bob active = %v", bob[3])
	}
	carol := rows[2]
	if w, _ := carol[2].AsFloat(); w != 55 {
		t.Errorf("carol weight = %v", carol[2])
	}
	if b, _ := carol[3].AsBool(); !b {
		t.Errorf("YES should parse true: %v", carol[3])
	}
}

func TestImportCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing column":  "name,id\na,1\n",
		"bad int":         "name,id,weight,active\na,x,1,true\n",
		"bad float":       "name,id,weight,active\na,1,heavy,true\n",
		"bad bool":        "name,id,weight,active\na,1,1,maybe\n",
		"not null violat": "name,id,weight,active\n,1,1,true\n",
		"empty input":     "",
	}
	for name, data := range cases {
		if _, err := loadCSV(personSchema(t), data); err == nil {
			t.Errorf("%s: import should fail", name)
		}
	}
}

// exportRoundTrip exports rows, requires the exact text want, and reads
// the text back with ReadExportedCSV: after the schema's CheckRow (which
// types integral floats back as floats) every value must be identical.
func exportRoundTrip(t *testing.T, s *Schema, rows []Row, want string) {
	t.Helper()
	cols := make([]string, s.Len())
	for i := range cols {
		cols[i] = s.Column(i).Name
	}
	out := ExportCSV(cols, rows)
	if string(out) != want {
		t.Fatalf("export = %q\nwant     %q", out, want)
	}
	back, err := ReadExportedCSV(cols, out)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(back) != len(rows) {
		t.Fatalf("read back %d rows, exported %d", len(back), len(rows))
	}
	for i := range rows {
		got, err := s.CheckRow(back[i])
		if err != nil {
			t.Fatalf("row %d read back as %v: %v", i, back[i], err)
		}
		for j := range rows[i] {
			a, b := rows[i][j], got[j]
			if a.Kind() != b.Kind() || a.String() != b.String() {
				t.Errorf("row %d cell %d = %s (%s), exported %s (%s)", i, j, b, b.Kind(), a, a.Kind())
			}
		}
	}
}

func TestExportCSVRoundTrip(t *testing.T) {
	s := personSchema(t)
	rows, err := loadCSV(s, "name,id,weight,active\nalice,1,61.5,TRUE\nbob,2,,FALSE\n")
	if err != nil {
		t.Fatal(err)
	}
	exportRoundTrip(t, s, rows, "id,name,weight,active\n1,\"alice\",61.5,TRUE\n2,\"bob\",NULL,FALSE\n")

	// Cells ReadCSV would trim, turn to NULL or split survive verbatim,
	// and so do the floats a decimal rendering cannot spell.
	tricky := []Row{
		{Int(math.MinInt64), Text(""), Float(math.NaN()), Null()},
		{Int(math.MaxInt64), Text("  padded  "), Float(math.Inf(1)), Bool(true)},
		{Int(-1), Text("a,b\r\nc\t\"q\" 'x' \\ é \x00\xff"), Float(math.Inf(-1)), Bool(false)},
		{Int(0), Text("NULL"), Float(math.Copysign(0, -1)), Null()},
		{Int(7), Text(","), Float(1e21), Null()},
		{Int(8), Text("-0"), Float(3), Null()},
	}
	exportRoundTrip(t, s, tricky, "id,name,weight,active\n"+
		"-9223372036854775808,\"\",NaN,NULL\n"+
		"9223372036854775807,\"  padded  \",+Inf,TRUE\n"+
		"-1,\"a,b\\r\\nc\\t\\\"q\\\" 'x' \\\\ é \\x00\\xff\",-Inf,FALSE\n"+
		"0,\"NULL\",-0,NULL\n"+
		"7,\",\",1e+21,NULL\n"+
		"8,\"-0\",3,NULL\n")
}

func TestExportQueryResultCSV(t *testing.T) {
	rows := []Row{{Text("calgary"), Int(3)}, {Text("edmonton"), Int(2)}, {Null(), Int(0)}}
	want := "city,n\n\"calgary\",3\n\"edmonton\",2\nNULL,0\n"
	if got := string(ExportCSV([]string{"city", "n"}, rows)); got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

// TestReadExportedCSVRejectsOtherSpellings pins the reader to the exact
// bytes ExportCSV writes: any other spelling of a value, a header or a
// line ending is refused rather than normalized, so whatever the reader
// accepts exports back byte for byte.
func TestReadExportedCSVRejectsOtherSpellings(t *testing.T) {
	cols := []string{"id", "name", "weight", "active"}
	const header = "id,name,weight,active\n"
	if rows, err := ReadExportedCSV(cols, []byte(header)); err != nil || len(rows) != 0 {
		t.Fatalf("header only = %v, %v; want no rows", rows, err)
	}
	for _, bad := range []string{
		"",
		"id,name,weight\n",
		"ID,name,weight,active\n",
		header + "1,\"a\",1.5,TRUE",     // no final newline
		header + "1,\"a\",1.5,TRUE\r\n", // CRLF
		header + "1,\"a\",1.5,TRUE,\n",  // extra cell
		header + "1,\"a\",1.5\n",        // missing cell
		header + "\n",                   // blank line
		header + "01,\"a\",1.5,TRUE\n",
		header + "+1,\"a\",1.5,TRUE\n",
		header + "1,a,1.5,TRUE\n",
		header + "1,'a',1.5,TRUE\n",
		header + "1,`a`,1.5,TRUE\n",
		header + "1,\"\\x61\",1.5,TRUE\n",
		header + "1,\"a\",1.50,TRUE\n",
		header + "-00,\"a\",1.5,TRUE\n",
		header + "1,\"a\",1.0,TRUE\n",
		header + "1,\"a\",inf,TRUE\n",
		header + "1,\"a\",1.5,true\n",
		header + "1,\"a\",1.5,T\n",
		header + "1,\"a\",null,TRUE\n",
		header + "1,\"a\",1.5, TRUE\n",
		header + "1,\"a\"\"b\",1.5,TRUE\n",
		header + "1,\"unterminated,1.5,TRUE\n",
		header + "99999999999999999999,\"a\",1.5,TRUE\n",
	} {
		if rows, err := ReadExportedCSV(cols, []byte(bad)); err == nil {
			t.Errorf("ReadExportedCSV(%q) = %v, want an error", bad, rows)
		}
	}
}
