package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/whatif"
)

// FuzzWhatIfRequest drives arbitrary bytes as the POST /v1/whatif body
// through ServeHTTP, with the operator token so detail requests are
// evaluated too, against a small store of the perfbench shape (policy A,
// generated providers). The server must never answer 500; a 200 must
// decode as a response over the whole population (current.n == N, and
// every provider either re-assessed or reused); anything else must carry
// the error envelope. Seeds in testdata/fuzz/FuzzWhatIfRequest: the
// API.md example, perfbench's one-tuple retarget, an empty diff, a NaN u,
// a Σ of 1e7 and duplicate ops.
func FuzzWhatIfRequest(f *testing.F) {
	db := benchShapedDB(f, 40)
	srv, err := NewWith(db, Options{OperatorToken: operatorToken})
	if err != nil {
		f.Fatal(err)
	}
	n := db.NumProviders()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(string(body)))
		req.Header.Set("X-Operator-Token", operatorToken)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch {
		case rec.Code >= http.StatusInternalServerError:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		case rec.Code == http.StatusOK:
			var resp whatif.Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode: %v: %s", err, rec.Body)
			}
			if resp.Current.N != n || resp.Affected+resp.MemoReused != n {
				t.Fatalf("200 over %d providers: current.n %d, affected %d + memoReused %d",
					n, resp.Current.N, resp.Affected, resp.MemoReused)
			}
		default:
			var env errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d without the error envelope (%v): %s", rec.Code, err, rec.Body)
			}
		}
	})
}
