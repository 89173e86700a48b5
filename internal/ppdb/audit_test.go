package ppdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
)

// servedAudit fills a trail with n records shaped like a read-serving
// workload's: one requester asking for one purpose, mostly point queries
// on Zipf-distributed provider keys, some range scans and some refused
// queries with their denial reason.
func servedAudit(n int) *Audit {
	a := newAudit()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 19999)
	at := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		q := EnforcedQuery{Requester: "analyst", Purpose: "service", Visibility: 2}
		allowed, reason := true, ""
		switch k := rng.Intn(16); {
		case k < 14:
			q.SQL = fmt.Sprintf("SELECT provider, weight, income FROM records WHERE provider = 'provider-%06d'", zipf.Uint64())
		case k < 15:
			lo := 40 + rng.Intn(90)
			q.SQL = fmt.Sprintf("SELECT provider, weight FROM records WHERE weight >= %d AND weight < %d", lo, lo+10)
		default:
			q.Purpose = "marketing"
			q.SQL = fmt.Sprintf("SELECT weight FROM records WHERE provider = 'provider-%06d'", zipf.Uint64())
			allowed, reason = false, `query: access denied on "provider": no policy tuple for purpose "marketing"`
		}
		a.record(at, q, allowed, reason)
	}
	return a
}

// TestAuditTrailHeap bounds the trail's memory: 100k served records stay
// under 4 MB of live heap; held as AccessRecord structs they take ~19 MB.
func TestAuditTrailHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle also drops pooled compressors
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	a := servedAudit(100000)
	after := heap()
	if a.Len() != 100000 {
		t.Fatalf("trail holds %d records, want 100000", a.Len())
	}
	used := int64(after) - int64(before)
	t.Logf("100k records: %d bytes of heap (%.1f B/record), %d sealed blocks", used, float64(used)/1e5, len(a.sealed))
	if used > 4<<20 {
		t.Errorf("100k records use %d bytes of heap, want under 4 MiB", used)
	}
	runtime.KeepAlive(a)
}

// TestAuditPageAllocsBounded checks that serving one page costs the same
// allocations whatever the trail's length: matches are counted, not
// copied, and every sealed block inflates through one reader and buffer.
func TestAuditPageAllocsBounded(t *testing.T) {
	small, large := servedAudit(1000), servedAudit(100000)
	for _, prefix := range []string{"", "analyst", "nobody"} {
		allocs := func(a *Audit) float64 {
			return testing.AllocsPerRun(5, func() {
				total, page := a.Page(prefix, 500, 1)
				if prefix == "nobody" {
					if total != 0 || len(page) != 0 {
						t.Fatalf("prefix %q: total %d, page %d", prefix, total, len(page))
					}
				} else if len(page) != 1 {
					t.Fatalf("prefix %q: page of %d records, want 1", prefix, len(page))
				}
			})
		}
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("prefix %q: a one-record page allocates %v times at 1k records and %v at 100k", prefix, s, l)
		}
	}
}

// referencePage is the trail's paging contract written over a plain
// slice: filter by requester prefix, then slice the matches.
func referencePage(recs []AccessRecord, prefix string, offset, limit int) (int, []AccessRecord) {
	var matched []AccessRecord
	for _, r := range recs {
		if strings.HasPrefix(r.Requester, prefix) {
			matched = append(matched, r)
		}
	}
	offset = min(max(offset, 0), len(matched))
	end := offset + min(max(limit, 0), len(matched)-offset)
	return len(matched), append([]AccessRecord(nil), matched[offset:end]...)
}

// FuzzAuditTrail appends arbitrary records — any bytes in every string,
// statements long enough to span blocks, clock advances and location
// changes between records — and checks that Records reads every one back
// exactly and that Page equals filtering and slicing Records.
func FuzzAuditTrail(f *testing.F) {
	f.Add([]byte("analyst\x00service\x00SELECT 1\x00\x00"), uint16(3), int64(0), "", 0, 10)
	f.Add([]byte("dr-\xff\x00care\x00SELECT weight FROM t\x00denied\x00ads\x00marketing\x00\x00\x00"), uint16(7), int64(90061), "dr", 1, 2)
	f.Add([]byte("a\x00b\x00c\x00d"), uint16(1200), int64(3600), "a", 1000, 1000)
	f.Add([]byte(""), uint16(0), int64(0), "x", 0, 0)
	f.Fuzz(func(t *testing.T, spec []byte, n uint16, advance int64, prefix string, offset, limit int) {
		fields := strings.Split(string(spec), "\x00")
		field := func(i int) string { return fields[i%len(fields)] }
		east := time.FixedZone("east", 5*3600+1800)
		at := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
		a := newAudit()
		var want []AccessRecord
		for i := 0; i < int(n%4096); i++ {
			if advance != 0 && i%97 == 96 {
				at = at.Add(time.Duration(advance))
			}
			if i%301 == 300 {
				at = at.In(east)
			}
			q := EnforcedQuery{
				Requester:  field(4 * i),
				Purpose:    privacy.Purpose(field(4*i + 1)),
				Visibility: privacy.Level(i%5 - 1),
				SQL:        field(4*i + 2),
			}
			if i%500 == 499 {
				q.SQL = strings.Repeat(q.SQL+";", 1+auditBlockSize/(len(q.SQL)+1))
			}
			allowed, reason := i%3 != 0, field(4*i+3)
			a.record(at, q, allowed, reason)
			want = append(want, AccessRecord{
				At: at, Requester: q.Requester, Purpose: q.Purpose.Normalize(), Visibility: q.Visibility,
				SQL: q.SQL, Allowed: allowed, Reason: reason,
			})
		}
		got := a.Records()
		if len(got) != len(want) || a.Len() != len(want) {
			t.Fatalf("Records holds %d, Len %d, want %d", len(got), a.Len(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d reads back as %+v, want %+v", i, got[i], want[i])
			}
		}
		for _, p := range []string{prefix, ""} {
			total, page := a.Page(p, offset, limit)
			wantTotal, wantPage := referencePage(want, p, offset, limit)
			if total != wantTotal || !reflect.DeepEqual(page, wantPage) {
				t.Fatalf("Page(%q, %d, %d) = %d, %d records; want %d, %d", p, offset, limit, total, len(page), wantTotal, len(wantPage))
			}
		}
	})
}

// TestAuditConcurrentReaders records from several goroutines while others
// page and copy the trail across block seals: every read must see a
// consistent snapshot (a total that never shrinks, whole pages of whole
// records), and the final trail must hold every record once.
func TestAuditConcurrentReaders(t *testing.T) {
	const writers, each = 4, 3000
	a := newAudit()
	at := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	sql := strings.Repeat("SELECT weight FROM records WHERE provider = 'p' ", 4)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.record(at, EnforcedQuery{Requester: fmt.Sprintf("w%d", w), Purpose: "service", SQL: sql}, true, "")
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				total, page := a.Page("w1", last/2, 50)
				if total < last {
					t.Errorf("prefix total went from %d to %d", last, total)
					return
				}
				last = total
				for _, rec := range page {
					if rec.Requester != "w1" || rec.SQL != sql {
						t.Errorf("torn record %+v", rec)
						return
					}
				}
				if n := len(a.Records()); n > writers*each {
					t.Errorf("Records holds %d, more than were written", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got := len(a.Records()); got != writers*each || a.Len() != got {
		t.Fatalf("trail holds %d (Len %d), want %d", got, a.Len(), writers*each)
	}
	if len(a.sealed) < 2 {
		t.Fatalf("only %d sealed blocks: the test never crossed a seal", len(a.sealed))
	}
	for w := 0; w < writers; w++ {
		if total, _ := a.Page(fmt.Sprintf("w%d", w), 0, 0); total != each {
			t.Errorf("requester w%d has %d records, want %d", w, total, each)
		}
	}
}
