package edge

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"knlmlm/internal/mlmsort"
)

// TestWireSubmitRoundTrip: what NewWireSubmit builds, DecodeSubmit reads
// back, so the coordinator's client and both servers agree on where
// each option rides.
func TestWireSubmitRoundTrip(t *testing.T) {
	want := SortRequest{
		Keys: []int64{9, -3, 4}, KeyType: "i64", Priority: 2, DeadlineMS: 1500,
		Algorithm: "MLM-sort", MegachunkLen: 4096, Wait: true,
	}
	req, size, err := NewWireSubmit(context.Background(), "http://node", want)
	if err != nil {
		t.Fatal(err)
	}
	if req.URL.Query().Has("deadline_ms") || req.Header.Get(DeadlineHeader) != "1500" {
		t.Fatalf("the deadline must ride %s, where a node sheds before reading the body: %v %v",
			DeadlineHeader, req.URL, req.Header)
	}
	got, fr, err := DecodeSubmit(httptest.NewRecorder(), req, int64(size))
	if err != nil {
		t.Fatal(err)
	}
	got.Keys = make([]int64, fr.Total())
	if err := fr.ReadInto(got.Keys); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestParseAlgorithm: one name per data flow, and no default of the
// edge's own. No name is the zero Algorithm, which sched.submit resolves.
func TestParseAlgorithm(t *testing.T) {
	if a, err := ParseAlgorithm(""); err != nil || a != 0 {
		t.Errorf(`ParseAlgorithm("") = %v, %v; want the zero Algorithm`, a, err)
	}
	if a, err := ParseAlgorithm("MLM-sort"); err != nil || a != mlmsort.MLMSort {
		t.Errorf(`ParseAlgorithm("MLM-sort") = %v, %v`, a, err)
	}
	for _, name := range []string{"MLM-hybrid", "MLM-implicit", "mlm-sort", "GNU-flat"} {
		if a, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want an error", name, a)
		}
	}
}
