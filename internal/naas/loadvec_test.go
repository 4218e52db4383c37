package naas

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"soar/internal/load"
	"soar/internal/topology"
)

// plainPlaceRequest is the admission body as it was declared before
// loadVec: the reference the hand-written decoder must agree with.
type plainPlaceRequest struct {
	Load []int `json:"load"`
	K    int   `json:"k"`
}

// fuzzBodyLimit stands in for maxPlaceBody so that the fuzzer reaches
// the over-limit case with a small input.
const fuzzBodyLimit = 1 << 10

// FuzzLoadVecMatchesEncodingJSON holds decodePlace to encoding/json's
// own behaviour on a []int field: for any body the two agree on accept
// or reject, and on the decoded load and budget when they accept. The
// scratch is recycled across inputs, as the handler's pool recycles it
// across requests, so one body's values must never reach the next.
func FuzzLoadVecMatchesEncodingJSON(f *testing.F) {
	for _, seed := range []string{
		`{"load":[0,3,1],"k":4}`,
		`null`,
		`{"load":null,"k":1}`,
		`{"load":[null,1],"k":1}`,
		" {\t\"load\" : [ 1 ,\n2 , 3 ]\r, \"k\" : 2 } ",
		`{"load":[-0,1]}`,
		`{"load":[1.0]}`,
		`{"load":[1e2]}`,
		`{"load":[-5,7]}`,
		`{"load":[9223372036854775807,-9223372036854775808]}`,
		`{"load":[9223372036854775808]}`,
		`{"load":[-9223372036854775809]}`,
		`{"load":[12345678901234567890]}`,
		`{"load":[[1,2],3]}`,
		`{"load":["1",2]}`,
		`{"load":[true]}`,
		`{"load":[{}]}`,
		`{"load":"abc"}`,
		`{"load":7}`,
		`{"load":{}}`,
		`{"load":[]}`,
		`{"load":[1,2,3],"load":[9]}`,
		`{"load":[1,2,3],"load":[9],"load":[null,null,null]}`,
		`{"load":[1,2],"load":[],"load":[null,null]}`,
		`{"load":[1,2],"load":null,"load":[null]}`,
		`{"LOAD":[1],"Load":[null,2],"K":3}`,
		`{"load":[1],"k":1,"extra":true}`,
		`{"load":[1],"k":1} trailing`,
		`{"load":[1,2`,
		`{"load":[1,,2]}`,
		`{"load":[` + strings.Repeat("1,", fuzzBodyLimit) + `1],"k":2}`,
	} {
		f.Add([]byte(seed))
	}
	sc := new(placeScratch)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want plainPlaceRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, bodyReader(body), fuzzBodyLimit))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		got, gotErr := decodePlace(http.MaxBytesReader(nil, bodyReader(body), fuzzBodyLimit), sc)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodePlace err = %v, encoding/json err = %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.K != want.K || !slices.Equal([]int(got.Load), want.Load) {
			t.Fatalf("body %q: decoded (%v, k=%d), encoding/json gives (%v, k=%d)", body, got.Load, got.K, want.Load, want.K)
		}
	})
}

func bodyReader(b []byte) *nopCloser { return &nopCloser{bytes.NewReader(b)} }

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// TestHandlerRejectsOversizedBody pins the real limit the fuzz target
// scales down: one byte past maxPlaceBody is a 400, not an admission.
func TestHandlerRejectsOversizedBody(t *testing.T) {
	svc := NewService(topology.MustBT(8), 2)
	defer svc.Close()
	body := `{"load":[0,0,0,1,2,3,4],"k":2}`
	pad := strings.Repeat(" ", maxPlaceBody+1-len(body))
	for _, tc := range []struct {
		body string
		want int
	}{{body, http.StatusCreated}, {pad + body, http.StatusBadRequest}} {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d: %s", len(tc.body), rec.Code, tc.want, rec.Body)
		}
	}
}

// TestDecodeErrorNamesTheField keeps the rejection as legible as
// encoding/json's own.
func TestDecodeErrorNamesTheField(t *testing.T) {
	_, err := decodePlace(strings.NewReader(`{"load":[1,2.5],"k":1}`), new(placeScratch))
	const want = "json: cannot unmarshal number 2.5 into Go struct field placeRequest.load of type int"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// BenchmarkHandlePlace prices POST /v1/tenants on a recorder — decode,
// admission, encode — with the end-to-end benchmark's sparse_churn
// request: BT(2048), 8 loaded racks, k=8, a 4 KB body. Each iteration
// also releases what it placed (a fresh scheduler numbers its leases
// from zero), a few microseconds against the handler's hundreds.
func BenchmarkHandlePlace(b *testing.B) {
	tr := topology.MustBT(2048)
	svc := NewService(tr, 16)
	defer svc.Close()
	h := svc.Handler()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 64)
	for i := range bodies {
		body, err := json.Marshal(plainPlaceRequest{load.GenerateSparse(tr, load.PaperPowerLaw(), 8, rng), 8})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.SetBytes(int64(len(bodies[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusCreated {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if err := svc.Release(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
