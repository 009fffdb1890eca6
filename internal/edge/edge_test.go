package edge

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestWireSubmitRoundTrip: what NewWireSubmit builds, DecodeSubmit reads
// back, so the coordinator's client and both servers agree on where
// each option rides. An algorithm name rides too, so that Check refuses
// it at whichever tier it reaches.
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
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if err := got.Check(); err == nil {
		t.Fatalf("Check accepted algorithm %q", got.Algorithm)
	}
	if got.Algorithm = ""; got.Check() != nil {
		t.Fatalf("Check refused %+v", got)
	}
}
