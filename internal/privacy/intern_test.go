package privacy

import (
	"strings"
	"testing"
)

// TestProviderKey pins the provider key: strings.ToLower on every valid
// UTF-8 name — so snapshots and WAL records written before keep their
// keys — and every byte that is not valid UTF-8 kept as it is.
func TestProviderKey(t *testing.T) {
	for _, name := range []string{"", "bo", "Bo", "ÅSA", "K", "İstanbul", "bo�b", "ΣΑΣ"} {
		if got, want := ProviderKey(name), strings.ToLower(name); got != want {
			t.Errorf("ProviderKey(%q) = %q, want strings.ToLower's %q", name, got, want)
		}
	}
	for name, want := range map[string]string{
		"bo\xffb":           "bo\xffb",
		"BO\xfeB":           "bo\xfeb",
		"\xc3":              "\xc3",   // a rune cut short
		"Å\xffÅ":            "å\xffå", // valid runes around the byte
		"X\xef\xbf\xbd\xff": "x�\xff", // an encoded U+FFFD beside an invalid byte
	} {
		if got := ProviderKey(name); got != want {
			t.Errorf("ProviderKey(%q) = %q, want %q", name, got, want)
		}
	}
	if ProviderKey("bo\xffb") == ProviderKey("bo\xfeb") {
		t.Error("names that differ in an invalid byte share a key")
	}
}
