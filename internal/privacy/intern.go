package privacy

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// CanonAttr returns the canonical (lower-cased, trimmed) form of an
// attribute name — the attribute identity the whole model compares on
// (SQL-style case-insensitive identifiers). Exported so the columnar
// assessment plane (internal/core) can index compiled columns by the same
// canonical form the row-oriented structures use internally.
func CanonAttr(a string) string { return strings.ToLower(strings.TrimSpace(a)) }

// ProviderKey returns the canonical key of a provider name — the identity
// the store, its snapshots and the audit tools key providers by. Each
// valid rune is lower-cased as strings.ToLower does, so a valid UTF-8 name
// keeps the key strings.ToLower gives it, and each byte that is not valid
// UTF-8 is copied unchanged: strings.ToLower would turn every such byte
// into U+FFFD, giving "bo\xffb" and "bo\xfeb" one key.
func ProviderKey(name string) string {
	if utf8.ValidString(name) {
		return strings.ToLower(name)
	}
	key := make([]byte, 0, len(name))
	for i := 0; i < len(name); {
		r, n := utf8.DecodeRuneInString(name[i:])
		if r == utf8.RuneError && n == 1 {
			key = append(key, name[i])
		} else {
			key = utf8.AppendRune(key, unicode.ToLower(r))
		}
		i += n
	}
	return string(key)
}

// Interner maps symbols (attribute names, purposes) to dense uint32 ids,
// assigned in first-Intern order. Dense ids let the columnar assessment
// kernel index flat slices instead of hashing strings: an attribute id is
// an offset into per-attribute sensitivity and policy-range columns.
//
// An Interner is not safe for concurrent mutation. The intended lifecycle
// is build-then-freeze: a CompiledPolicy interns everything it needs at
// construction and afterwards only calls the read-only methods (Lookup,
// Name, Len), which are safe to use from any number of goroutines.
type Interner struct {
	ids  map[string]uint32
	strs []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the id of s, assigning the next dense id if s is new.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// Lookup returns the id of s without interning it.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Name returns the symbol with id, which must have been interned.
func (in *Interner) Name(id uint32) string { return in.strs[id] }

// Len returns the number of interned symbols (ids are 0..Len-1).
func (in *Interner) Len() int { return len(in.strs) }
