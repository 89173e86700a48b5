package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
)

var updateAudit = flag.Bool("update-audit", false, "rewrite testdata/audit_trail.golden from the current trail")

// digest keeps a short body verbatim and a long one as its size and
// SHA-256, so the golden stays small.
func digest(body []byte) string {
	if len(body) <= 2048 {
		return string(body)
	}
	return fmt.Sprintf("%d bytes, sha256 %x", len(body), sha256.Sum256(body))
}

// TestAuditTrailGolden pins the access log's answers byte for byte: one
// seeded history — allowed, denied and unparseable queries from three
// requester families, a requester name that is not UTF-8, statements long
// enough to span the trail's storage blocks, and a clock advance halfway —
// then GET /v1/audit over prefixes, offsets inside and past the end, empty
// and count-only pages, plus Records(). The golden was recorded from the
// slice-backed trail the block store replaced.
func TestAuditTrailGolden(t *testing.T) {
	hp := privacy.NewHousePolicy("audit")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := ppdb.New(ppdb.Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("maria", 50)
	p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	if err := db.RegisterProvider(p); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", "maria", relational.Row{relational.Text("maria"), relational.Float(61.5)}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3000
	for i := 0; i < n; i++ {
		if i == n/2 {
			if _, err := db.Advance(36*time.Hour + 250*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		q := ppdb.EnforcedQuery{Purpose: "care", Visibility: privacy.Level(1 + i%3)}
		switch i % 7 {
		case 0, 1, 2:
			q.Requester = fmt.Sprintf("dr-%d", i%5)
			q.SQL = fmt.Sprintf("SELECT provider, weight FROM t WHERE weight >= %d AND weight < %d", 40+i%90, 50+i%90)
		case 3, 4:
			q.Requester, q.Purpose = fmt.Sprintf("ads-%d", i%3), "marketing"
			q.SQL = fmt.Sprintf("SELECT weight FROM t WHERE provider = 'p-%06d'", i)
		case 5:
			q.Requester = "analyst"
			q.SQL = "SELECT nope FROM" + strings.Repeat(" t", i%11)
		default:
			q.Requester = "dr-\xff\xfe"
			q.SQL = "SELECT weight FROM t"
		}
		if i%1500 == 250 {
			// Longer than a storage block on its own.
			q.SQL = "SELECT weight FROM t WHERE provider IN ('" + strings.Repeat("x", 70<<10) + "')"
		}
		//lint:ignore errflow denied and malformed queries are part of the history under test
		_, _ = db.QueryEnforced(q)
	}

	var got bytes.Buffer
	for _, query := range []string{
		"", "?limit=0", "?offset=0&limit=1", "?offset=2999&limit=5", "?offset=3000", "?offset=4000&limit=3",
		"?offset=590&limit=1000", "?offset=1495&limit=10", "?offset=1000&limit=1000",
		"?prefix=dr", "?prefix=dr-", "?prefix=dr-3&offset=7&limit=3", "?prefix=ads&offset=850&limit=100",
		"?prefix=ads&offset=857", "?prefix=analyst&limit=0", "?prefix=zzz", "?prefix=dr-%FF",
		"?prefix=a&offset=100&limit=1000",
	} {
		rec := do(t, srv, http.MethodGet, "/v1/audit"+query, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/audit%s = %d %s", query, rec.Code, rec.Body)
		}
		fmt.Fprintf(&got, "GET /v1/audit%s\n%s\n", query, digest(rec.Body.Bytes()))
	}
	recs, err := json.Marshal(db.Audit().Records())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "Records\n%s\n", digest(recs))

	path := filepath.Join("testdata", "audit_trail.golden")
	if *updateAudit {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("audit answers differ from the golden at line %d:\n got: %.300s\nwant: %.300s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("audit answers differ from the golden: %d lines, want %d", len(gl), len(wl))
	}
}
