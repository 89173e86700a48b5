package policydsl

import (
	"testing"
	"testing/quick"
)

// TestParseNeverPanics feeds arbitrary strings to the DSL parser.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanicsOnDSLishInput biases toward DSL-shaped fragments.
func TestParseNeverPanicsOnDSLishInput(t *testing.T) {
	fragments := []string{
		"policy", "provider", "attr", "tuple", "sens", "sensitivity",
		"threshold", "{", "}", "=", `"name"`, "purpose", "visibility",
		"granularity", "retention", "value", "v", "g", "r", "house",
		"specific", "year", "5", "-3", "2.5", "#comment\n", "weight",
	}
	f := func(picks []uint8) (ok bool) {
		var src string
		for i, p := range picks {
			if i >= 40 {
				break
			}
			src += fragments[int(p)%len(fragments)] + " "
		}
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
