package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/query"
)

// testFrame exercises every primitive: varints, strings, bytes,
// bools, and the sorted-attrs map.
type testFrame struct {
	ReqID uint64
	Name  string
	Blob  []byte
	Found bool
	Attrs query.Attrs
	Tags  []string
}

func (f *testFrame) AppendBinary(dst []byte) []byte {
	dst = AppendUvarint(dst, f.ReqID)
	dst = AppendString(dst, f.Name)
	dst = AppendBytes(dst, f.Blob)
	dst = AppendBool(dst, f.Found)
	dst = AppendAttrs(dst, f.Attrs)
	dst = AppendUvarint(dst, uint64(len(f.Tags)))
	for _, t := range f.Tags {
		dst = AppendString(dst, t)
	}
	return dst
}

func (f *testFrame) DecodeBinary(data []byte) error {
	r := NewReader(data)
	f.ReqID = r.Uvarint()
	f.Name = r.String()
	f.Blob = r.Bytes()
	f.Found = r.Bool()
	f.Attrs = r.Attrs()
	n := r.Len()
	f.Tags = f.Tags[:0]
	for i := 0; i < n; i++ {
		f.Tags = append(f.Tags, r.String())
	}
	if len(f.Tags) == 0 {
		f.Tags = nil
	}
	return r.Err()
}

func sampleFrame() *testFrame {
	a := query.Attrs{}
	a.Add("classification", "behavioral")
	a.Add("classification", "structural")
	a.Add("author", "GoF")
	return &testFrame{
		ReqID: 1<<40 + 7,
		Name:  "observer",
		Blob:  []byte{0, 1, 2, 0xff},
		Found: true,
		Attrs: a,
		Tags:  []string{"x", "y"},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, f := range []*testFrame{sampleFrame(), {}} {
		enc := Encode(f)
		var got testFrame
		if err := got.DecodeBinary(enc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(f, &got) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", f, &got)
		}
	}
}

// TestBinaryDeterministic: map-valued fields must encode identically
// regardless of map iteration order, run after run.
func TestBinaryDeterministic(t *testing.T) {
	base := Encode(sampleFrame())
	for i := 0; i < 32; i++ {
		if got := Encode(sampleFrame()); !bytes.Equal(base, got) {
			t.Fatalf("encoding not deterministic on iteration %d", i)
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	enc := Encode(sampleFrame())
	for cut := 0; cut < len(enc); cut++ {
		var got testFrame
		if err := got.DecodeBinary(enc[:cut]); err == nil {
			// A prefix may be a valid shorter frame only if every
			// remaining field happens to decode as zero — with our
			// sample's trailing content that never happens.
			t.Fatalf("truncation at %d/%d not detected", cut, len(enc))
		}
	}
}

func TestReaderCorruptLength(t *testing.T) {
	// A length prefix far beyond the buffer must fail, not allocate.
	buf := AppendUvarint(nil, 1<<50)
	r := NewReader(buf)
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized length prefix not rejected")
	}
}

// TestBinaryEncodeAllocs pins the binary hot path: one allocation per
// Encode (the exact-size payload), zero per DecodeBinary beyond the
// decoded fields themselves (none for this all-scalar frame).
func TestBinaryEncodeAllocs(t *testing.T) {
	f := &testFrame{ReqID: 42, Name: "q", Found: true}
	// Warm the scratch pool.
	Encode(f)
	if n := testing.AllocsPerRun(200, func() {
		Encode(f)
	}); n > 1 {
		t.Fatalf("binary encode allocs/op = %v, want <= 1", n)
	}
	enc := Encode(f)
	var dst testFrame
	if n := testing.AllocsPerRun(200, func() {
		dst = testFrame{}
		if err := dst.DecodeBinary(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("binary decode allocs/op = %v, want 0", n)
	}
}

// TestWirePathAllocComparison backs the EXPERIMENTS.md claim about
// per-message wire cost: on an RPC-shaped scalar frame (the shape of
// pings, findNode waves, and reply headers — the bulk of DHT traffic)
// an encode+decode round trip costs at most 1 allocation.
func TestWirePathAllocComparison(t *testing.T) {
	f := &testFrame{ReqID: 42, Name: "q", Found: true}
	Encode(f) // warm the scratch pool
	enc := Encode(f)
	var dst testFrame
	allocs := testing.AllocsPerRun(500, func() {
		Encode(f)
		dst = testFrame{}
		dst.DecodeBinary(enc)
	})
	if allocs > 1 {
		t.Errorf("wire path allocs per encode+decode = %v, want <= 1", allocs)
	}
}

func BenchmarkBinaryRoundTrip(b *testing.B) {
	f := sampleFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := Encode(f)
		var got testFrame
		if err := got.DecodeBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}
