package relational

import (
	"bytes"
	"strings"
	"testing"
)

// loadCSV reads CSV into tab the way the store ingests it: ReadCSV types
// the cells, Table.Insert enforces the schema's constraints.
func loadCSV(tab *Table, data string) (int, error) {
	rows, err := ReadCSV(tab.Schema(), strings.NewReader(data))
	if err != nil {
		return 0, err
	}
	for i, row := range rows {
		if _, err := tab.Insert(row); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

func TestImportCSV(t *testing.T) {
	tab := newPersonTable(t)
	csvData := `name,id,weight,active
alice,1,61.5,true
bob,2,,false
carol,3,55,YES
`
	n, err := loadCSV(tab, csvData)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tab.Len() != 3 {
		t.Fatalf("imported %d rows", n)
	}
	_, row, ok := tab.GetByPK(Int(2))
	if !ok {
		t.Fatal("bob missing")
	}
	if !row[2].IsNull() {
		t.Errorf("empty cell should be NULL: %v", row[2])
	}
	if b, _ := row[3].AsBool(); b {
		t.Errorf("bob active = %v", row[3])
	}
	_, row, _ = tab.GetByPK(Int(3))
	if w, _ := row[2].AsFloat(); w != 55 {
		t.Errorf("carol weight = %v", row[2])
	}
	if b, _ := row[3].AsBool(); !b {
		t.Errorf("YES should parse true: %v", row[3])
	}
}

func TestImportCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing column":  "name,id\na,1\n",
		"bad int":         "name,id,weight,active\na,x,1,true\n",
		"bad float":       "name,id,weight,active\na,1,heavy,true\n",
		"bad bool":        "name,id,weight,active\na,1,1,maybe\n",
		"pk duplicate":    "name,id,weight,active\na,1,1,true\nb,1,2,false\n",
		"not null violat": "name,id,weight,active\n,1,1,true\n",
		"empty input":     "",
	}
	for name, data := range cases {
		tab := newPersonTable(t)
		if _, err := loadCSV(tab, data); err == nil {
			t.Errorf("%s: import should fail", name)
		}
	}
}

func TestExportCSVRoundTrip(t *testing.T) {
	tab := newPersonTable(t)
	src := "name,id,weight,active\nalice,1,61.5,TRUE\nbob,2,,FALSE\n"
	if _, err := loadCSV(tab, src); err != nil {
		t.Fatal(err)
	}
	cols := make([]string, tab.Schema().Len())
	for i := range cols {
		cols[i] = tab.Schema().Column(i).Name
	}
	var rows []Row
	tab.Scan(func(_ RowID, row Row) bool {
		rows = append(rows, row)
		return true
	})
	var buf bytes.Buffer
	if err := ExportCSV(&buf, cols, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "id,name,weight,active\n") {
		t.Errorf("header = %q", out)
	}
	if !strings.Contains(out, "1,alice,61.5,TRUE") {
		t.Errorf("alice row missing:\n%s", out)
	}
	// NULL exports as empty.
	if !strings.Contains(out, "2,bob,,FALSE") {
		t.Errorf("bob row wrong:\n%s", out)
	}
	// Re-import into a fresh table.
	tab2 := newPersonTable(t)
	n, err := loadCSV(tab2, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || tab2.Len() != 2 {
		t.Errorf("round-trip rows = %d", n)
	}
}

func TestExportQueryResultCSV(t *testing.T) {
	var buf bytes.Buffer
	rows := []Row{{Text("calgary"), Int(3)}, {Text("edmonton"), Int(2)}, {Null(), Int(0)}}
	if err := ExportCSV(&buf, []string{"city", "n"}, rows); err != nil {
		t.Fatal(err)
	}
	want := "city,n\ncalgary,3\nedmonton,2\n,0\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}
