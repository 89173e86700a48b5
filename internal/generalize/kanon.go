package generalize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Release is an anonymized projection of a table: the quasi-identifier
// columns (generalized) plus the sensitive column (verbatim).
type Release struct {
	QIColumns []string
	Sensitive string
	Rows      [][]relational.Value // QI values..., sensitive value last
	// LevelVector records the generalization level applied per QI column.
	LevelVector []int
}

// Anonymizer runs full-domain generalization over rows: every value of a
// quasi-identifier column is generalized to the same level, and a lattice of
// level vectors is searched for the minimal vector achieving k-anonymity
// (Samarati-style breadth-first search by vector height).
type Anonymizer struct {
	rows        []relational.Row
	qiCols      []string
	qiIdx       []int
	hierarchies []Hierarchy
	sensCol     string
	sensIdx     int
}

// NewAnonymizer prepares anonymization of rows conforming to schema with
// the given quasi-identifier columns (each with its hierarchy) and
// sensitive column.
func NewAnonymizer(schema *relational.Schema, rows []relational.Row, qi map[string]Hierarchy, sensitive string) (*Anonymizer, error) {
	if schema == nil {
		return nil, fmt.Errorf("generalize: nil schema")
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("generalize: need at least one quasi-identifier")
	}
	a := &Anonymizer{rows: rows, sensCol: strings.ToLower(sensitive)}
	cols := make([]string, 0, len(qi))
	for c := range qi {
		cols = append(cols, strings.ToLower(c))
	}
	sort.Strings(cols)
	for _, c := range cols {
		i, ok := schema.ColumnIndex(c)
		if !ok {
			return nil, fmt.Errorf("generalize: schema has no column %q", c)
		}
		h := qi[c]
		if h == nil {
			// Case differences between the map key and canonical name.
			for orig, oh := range qi {
				if strings.EqualFold(orig, c) {
					h = oh
					break
				}
			}
		}
		if h == nil {
			return nil, fmt.Errorf("generalize: column %q has no hierarchy", c)
		}
		a.qiCols = append(a.qiCols, c)
		a.qiIdx = append(a.qiIdx, i)
		a.hierarchies = append(a.hierarchies, h)
	}
	si, ok := schema.ColumnIndex(a.sensCol)
	if !ok {
		return nil, fmt.Errorf("generalize: schema has no sensitive column %q", sensitive)
	}
	a.sensIdx = si
	return a, nil
}

// Generalize produces the release at a fixed level vector (one level per QI
// column, in the Anonymizer's sorted column order).
func (a *Anonymizer) Generalize(levels []int) (*Release, error) {
	if len(levels) != len(a.qiCols) {
		return nil, fmt.Errorf("generalize: level vector has %d entries for %d QI columns", len(levels), len(a.qiCols))
	}
	rel := &Release{
		QIColumns:   append([]string(nil), a.qiCols...),
		Sensitive:   a.sensCol,
		LevelVector: append([]int(nil), levels...),
	}
	for _, row := range a.rows {
		out := make([]relational.Value, len(a.qiIdx)+1)
		for j, ci := range a.qiIdx {
			out[j] = a.hierarchies[j].Generalize(row[ci], levels[j])
		}
		out[len(out)-1] = row[a.sensIdx]
		rel.Rows = append(rel.Rows, out)
	}
	return rel, nil
}

// classKey renders the QI part of a release row for equivalence grouping.
func classKey(row []relational.Value) string {
	var b strings.Builder
	for _, v := range row[:len(row)-1] {
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// EquivalenceClasses groups release rows by identical QI vectors, returning
// class sizes keyed by rendered QI.
func (r *Release) EquivalenceClasses() map[string][]int {
	classes := map[string][]int{}
	for i, row := range r.Rows {
		k := classKey(row)
		classes[k] = append(classes[k], i)
	}
	return classes
}

// IsKAnonymous reports whether every equivalence class has at least k rows.
// An empty release is trivially k-anonymous.
func (r *Release) IsKAnonymous(k int) bool {
	for _, idxs := range r.EquivalenceClasses() {
		if len(idxs) < k {
			return false
		}
	}
	return true
}

// MinClassSize returns the size of the smallest equivalence class (0 for an
// empty release) — the largest k for which the release is k-anonymous.
func (r *Release) MinClassSize() int {
	min := 0
	first := true
	for _, idxs := range r.EquivalenceClasses() {
		if first || len(idxs) < min {
			min = len(idxs)
			first = false
		}
	}
	return min
}

// DistinctLDiversity returns the minimum number of distinct sensitive values
// across equivalence classes (distinct l-diversity). NULL sensitive values
// count as one shared value.
func (r *Release) DistinctLDiversity() int {
	min := 0
	first := true
	for _, idxs := range r.EquivalenceClasses() {
		distinct := map[string]bool{}
		for _, i := range idxs {
			distinct[r.Rows[i][len(r.Rows[i])-1].String()] = true
		}
		if first || len(distinct) < min {
			min = len(distinct)
			first = false
		}
	}
	return min
}

// SearchK finds a minimal-height level vector achieving k-anonymity via
// breadth-first search over the generalization lattice (full-domain
// Samarati search: try all vectors of total height h before any of h+1).
// It returns the release at the first satisfying vector.
func (a *Anonymizer) SearchK(k int) (*Release, error) {
	if k < 1 {
		return nil, fmt.Errorf("generalize: k must be ≥ 1, got %d", k)
	}
	maxLevels := make([]int, len(a.hierarchies))
	maxHeight := 0
	for i, h := range a.hierarchies {
		maxLevels[i] = h.Levels() - 1
		maxHeight += maxLevels[i]
	}
	for h := 0; h <= maxHeight; h++ {
		vectors := vectorsOfHeight(maxLevels, h)
		for _, vec := range vectors {
			rel, err := a.Generalize(vec)
			if err != nil {
				return nil, err
			}
			if rel.IsKAnonymous(k) {
				return rel, nil
			}
		}
	}
	return nil, fmt.Errorf("generalize: no level vector achieves %d-anonymity (table too small)", k)
}

// SearchKL finds a minimal-height level vector achieving both k-anonymity
// and distinct l-diversity (Machanavajjhala et al.), the natural refinement
// the paper's related work cites alongside k-anonymity.
func (a *Anonymizer) SearchKL(k, l int) (*Release, error) {
	if k < 1 || l < 1 {
		return nil, fmt.Errorf("generalize: k and l must be ≥ 1, got k=%d l=%d", k, l)
	}
	maxLevels := make([]int, len(a.hierarchies))
	maxHeight := 0
	for i, h := range a.hierarchies {
		maxLevels[i] = h.Levels() - 1
		maxHeight += maxLevels[i]
	}
	for h := 0; h <= maxHeight; h++ {
		for _, vec := range vectorsOfHeight(maxLevels, h) {
			rel, err := a.Generalize(vec)
			if err != nil {
				return nil, err
			}
			if rel.IsKAnonymous(k) && rel.DistinctLDiversity() >= l {
				return rel, nil
			}
		}
	}
	return nil, fmt.Errorf("generalize: no level vector achieves %d-anonymity with %d-diversity", k, l)
}

// vectorsOfHeight enumerates all level vectors bounded by maxLevels whose
// components sum to h, in lexicographic order for determinism.
func vectorsOfHeight(maxLevels []int, h int) [][]int {
	var out [][]int
	vec := make([]int, len(maxLevels))
	var rec func(i, rem int)
	rec = func(i, rem int) {
		if i == len(vec) {
			if rem == 0 {
				out = append(out, append([]int(nil), vec...))
			}
			return
		}
		hi := maxLevels[i]
		if hi > rem {
			hi = rem
		}
		for v := 0; v <= hi; v++ {
			vec[i] = v
			rec(i+1, rem-v)
		}
		vec[i] = 0
	}
	rec(0, h)
	return out
}

// PrecisionLoss measures release distortion: the mean of level/maxLevel over
// QI cells (0 = exact release, 1 = fully suppressed), the standard metric
// for full-domain schemes.
func (r *Release) PrecisionLoss(hierarchies []Hierarchy) float64 {
	if len(r.Rows) == 0 || len(hierarchies) != len(r.QIColumns) {
		return 0
	}
	var total float64
	for j, lv := range r.LevelVector {
		max := hierarchies[j].Levels() - 1
		if max > 0 {
			total += float64(lv) / float64(max)
		}
	}
	return total / float64(len(r.QIColumns))
}
