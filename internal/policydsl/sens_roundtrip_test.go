package policydsl

import (
	"testing"

	"repro/internal/privacy"
)

// TestSensWithoutTuplesRoundTrips pins the encoder fix for σ elements on
// attributes with no explicit preference tuples: such sensitivities still
// weigh implicit-zero conflicts, so dropping them on Render silently
// changed Violation_i after a snapshot reload or a WAL replay.
func TestSensWithoutTuplesRoundTrips(t *testing.T) {
	p := privacy.NewPrefs("ines", 10)
	p.Add("income", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1})
	// weight has sensitivities but no tuples.
	p.SetSensitivity("weight", privacy.Sensitivity{Value: 0.5, Visibility: 2, Granularity: 3, Retention: 4})
	p.SetPurposeSensitivity("weight", "service", privacy.Sensitivity{Value: 0.25, Visibility: 1, Granularity: 1, Retention: 1})
	doc := &Document{Providers: []*privacy.Prefs{p}, Scales: privacy.DefaultScales()}

	got, err := Parse(Render(doc))
	if err != nil {
		t.Fatalf("Parse(Render): %v", err)
	}
	if len(got.Providers) != 1 {
		t.Fatalf("%d providers", len(got.Providers))
	}
	q := got.Providers[0]
	if s := q.Sensitivity("weight", "marketing"); s != p.Sensitivity("weight", "marketing") {
		t.Errorf("default σ lost: got %v, want %v", s, p.Sensitivity("weight", "marketing"))
	}
	if s := q.Sensitivity("weight", "service"); s != p.Sensitivity("weight", "service") {
		t.Errorf("per-purpose σ lost: got %v, want %v", s, p.Sensitivity("weight", "service"))
	}
	if q.Len() != p.Len() {
		t.Errorf("tuple count changed: %d != %d", q.Len(), p.Len())
	}
}
