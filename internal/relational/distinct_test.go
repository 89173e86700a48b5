package relational

import (
	"testing"
)

func TestSelectDistinct(t *testing.T) {
	refusedAt(t, "SELECT DISTINCT city FROM patients ORDER BY city", "DISTINCT", "DISTINCT")
	// Multi-column distinct.
	refusedAt(t, "SELECT distinct city, age FROM patients ORDER BY city, age", "DISTINCT", "distinct")
	// A plain SELECT parses.
	if sel := parseSelect(t, "SELECT city FROM patients"); joined(itemStrings(sel)) != "city" {
		t.Errorf("items = %v", itemStrings(sel))
	}
}

func TestSelectDistinctWithAggregation(t *testing.T) {
	// DISTINCT comes first in reading order, so it is the construct named.
	refusedAt(t, "SELECT DISTINCT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY city", "DISTINCT", "DISTINCT")
}
