package generalize

import (
	"fmt"
	"testing"

	"repro/internal/relational"
)

// microdata is a small table of (age, city, disease) microdata.
type microdata struct {
	schema *relational.Schema
	rows   []relational.Row
}

// microdataTable builds the microdata rows, each checked against the schema.
func microdataTable(t *testing.T) microdata {
	t.Helper()
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "id", Type: relational.TypeInt, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "city", Type: relational.TypeText},
		{Name: "disease", Type: relational.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := microdata{schema: schema}
	rows := []struct {
		age     int64
		city    string
		disease string
	}{
		{23, "calgary", "flu"},
		{24, "calgary", "cold"},
		{27, "edmonton", "flu"},
		{28, "edmonton", "cancer"},
		{51, "calgary", "flu"},
		{53, "calgary", "cancer"},
		{57, "edmonton", "cold"},
		{59, "edmonton", "flu"},
	}
	for i, r := range rows {
		row, err := schema.CheckRow(relational.Row{
			relational.Int(int64(i)), relational.Int(r.age),
			relational.Text(r.city), relational.Text(r.disease),
		})
		if err != nil {
			t.Fatal(err)
		}
		tab.rows = append(tab.rows, row)
	}
	return tab
}

func testQI(t *testing.T) map[string]Hierarchy {
	t.Helper()
	ageH, err := NewNumericHierarchy(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cityH, err := NewCategoryHierarchy(map[string]string{
		"calgary": "alberta", "edmonton": "alberta",
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Hierarchy{"age": ageH, "city": cityH}
}

func TestGeneralizeIdentity(t *testing.T) {
	tab := microdataTable(t)
	an, err := NewAnonymizer(tab.schema, tab.rows, testQI(t), "disease")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := an.Generalize([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 8 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	// Exact release: every row is its own class (all ages distinct).
	if rel.IsKAnonymous(2) {
		t.Error("exact release should not be 2-anonymous")
	}
	if rel.MinClassSize() != 1 {
		t.Errorf("MinClassSize = %d", rel.MinClassSize())
	}
}

func TestSearchK(t *testing.T) {
	tab := microdataTable(t)
	an, err := NewAnonymizer(tab.schema, tab.rows, testQI(t), "disease")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := an.SearchK(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.IsKAnonymous(2) {
		t.Fatal("SearchK(2) release is not 2-anonymous")
	}
	// Minimality: total height is minimal — no vector of lower height works.
	height := 0
	for _, lv := range rel.LevelVector {
		height += lv
	}
	maxLevels := []int{2 + 1, 1 + 1} // hierarchy Levels()-1 per QI (sorted: age, city)
	for h := 0; h < height; h++ {
		for _, vec := range vectorsOfHeight(maxLevels, h) {
			r, err := an.Generalize(vec)
			if err != nil {
				t.Fatal(err)
			}
			if r.IsKAnonymous(2) {
				t.Fatalf("vector %v of lower height %d also achieves 2-anonymity", vec, h)
			}
		}
	}
	// 4-anonymity needs more generalization but is reachable.
	rel4, err := an.SearchK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !rel4.IsKAnonymous(4) {
		t.Error("SearchK(4) not 4-anonymous")
	}
	// Impossible k.
	if _, err := an.SearchK(9); err == nil {
		t.Error("k beyond table size should fail")
	}
	if _, err := an.SearchK(0); err == nil {
		t.Error("k = 0 should fail")
	}
}

func TestLDiversity(t *testing.T) {
	tab := microdataTable(t)
	an, err := NewAnonymizer(tab.schema, tab.rows, testQI(t), "disease")
	if err != nil {
		t.Fatal(err)
	}
	// Fully generalized: one class containing all 3 diseases.
	rel, err := an.Generalize([]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.DistinctLDiversity(); got != 3 {
		t.Errorf("l-diversity fully generalized = %d, want 3", got)
	}
	// Exact release: singleton classes → l = 1.
	exact, _ := an.Generalize([]int{0, 0})
	if got := exact.DistinctLDiversity(); got != 1 {
		t.Errorf("l-diversity exact = %d, want 1", got)
	}
}

func TestPrecisionLoss(t *testing.T) {
	tab := microdataTable(t)
	qi := testQI(t)
	an, err := NewAnonymizer(tab.schema, tab.rows, qi, "disease")
	if err != nil {
		t.Fatal(err)
	}
	hs := []Hierarchy{qi["age"], qi["city"]} // sorted column order
	exact, _ := an.Generalize([]int{0, 0})
	if got := exact.PrecisionLoss(hs); got != 0 {
		t.Errorf("exact precision loss = %g", got)
	}
	full, _ := an.Generalize([]int{3, 2})
	if got := full.PrecisionLoss(hs); got != 1 {
		t.Errorf("full precision loss = %g", got)
	}
	mid, _ := an.Generalize([]int{1, 1})
	if got := mid.PrecisionLoss(hs); got <= 0 || got >= 1 {
		t.Errorf("mid precision loss = %g", got)
	}
}

func TestNewAnonymizerErrors(t *testing.T) {
	tab := microdataTable(t)
	if _, err := NewAnonymizer(nil, nil, testQI(t), "disease"); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewAnonymizer(tab.schema, tab.rows, nil, "disease"); err == nil {
		t.Error("no QI should fail")
	}
	if _, err := NewAnonymizer(tab.schema, tab.rows, map[string]Hierarchy{"nope": SuppressionHierarchy{}}, "disease"); err == nil {
		t.Error("missing QI column should fail")
	}
	if _, err := NewAnonymizer(tab.schema, tab.rows, testQI(t), "nope"); err == nil {
		t.Error("missing sensitive column should fail")
	}
	an, _ := NewAnonymizer(tab.schema, tab.rows, testQI(t), "disease")
	if _, err := an.Generalize([]int{0}); err == nil {
		t.Error("wrong level vector length should fail")
	}
}

func TestVectorsOfHeight(t *testing.T) {
	vs := vectorsOfHeight([]int{2, 1}, 2)
	// Expect {0,2}→invalid (max 1), so: [1,1], [2,0].
	want := map[string]bool{"[1 1]": true, "[2 0]": true}
	if len(vs) != len(want) {
		t.Fatalf("vectors = %v", vs)
	}
	for _, v := range vs {
		if !want[fmt.Sprint(v)] {
			t.Errorf("unexpected vector %v", v)
		}
	}
	if got := vectorsOfHeight([]int{1, 1}, 0); len(got) != 1 || got[0][0] != 0 || got[0][1] != 0 {
		t.Errorf("height-0 vectors = %v", got)
	}
}

func TestSearchKL(t *testing.T) {
	tab := microdataTable(t)
	an, err := NewAnonymizer(tab.schema, tab.rows, testQI(t), "disease")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := an.SearchKL(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.IsKAnonymous(2) || rel.DistinctLDiversity() < 2 {
		t.Fatalf("release k=%d l=%d", rel.MinClassSize(), rel.DistinctLDiversity())
	}
	// The l constraint can force more generalization than k alone: the
	// k-only vector must not be taller than the (k, l) vector.
	kOnly, err := an.SearchK(2)
	if err != nil {
		t.Fatal(err)
	}
	height := func(r *Release) int {
		h := 0
		for _, lv := range r.LevelVector {
			h += lv
		}
		return h
	}
	if height(kOnly) > height(rel) {
		t.Errorf("k-only height %d exceeds (k,l) height %d", height(kOnly), height(rel))
	}
	// Impossible l (only 3 distinct diseases).
	if _, err := an.SearchKL(2, 4); err == nil {
		t.Error("l beyond distinct sensitive values should fail")
	}
	if _, err := an.SearchKL(0, 1); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := an.SearchKL(1, 0); err == nil {
		t.Error("l = 0 should fail")
	}
}
