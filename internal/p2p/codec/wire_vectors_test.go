package codec_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "repro/internal/dht" // registers the DHT frames
	_ "repro/internal/p2p" // registers the p2p frames
	"repro/internal/p2p/codec"
)

var update = flag.Bool("update", false, "rewrite testdata/wire from the current encoder")

// TestWireVectors pins the wire format of every registered frame type
// against committed golden bytes: testdata/wire/<type>.hex holds the
// encoding of a sample frame with every field set (fill). The encoder
// must still produce exactly those bytes, decoding them must give the
// sample back, and encoding the decoded frame must reproduce them.
// A change to any frame's field order or encoding fails here; rerun
// with -update only for a deliberate wire-format change.
func TestWireVectors(t *testing.T) {
	types := codec.Types()
	if len(types) == 0 {
		t.Fatal("no frame types registered")
	}
	dir := filepath.Join("testdata", "wire")
	for _, typ := range types {
		t.Run(typ, func(t *testing.T) {
			sample, _ := codec.New(typ)
			seq := 0
			fill(reflect.ValueOf(sample).Elem(), &seq)
			enc := codec.Encode(sample)
			path := filepath.Join(dir, typ+".hex")
			if *update {
				if err := os.WriteFile(path, []byte(hexLines(enc)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden vector for registered type %q: %v", typ, err)
			}
			golden, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(enc, golden) {
				t.Fatalf("encoding changed:\n got  %x\n want %x", enc, golden)
			}
			decoded, _ := codec.New(typ)
			if err := decoded.DecodeBinary(golden); err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if !reflect.DeepEqual(decoded, sample) {
				t.Fatalf("decoded %+v, want %+v", decoded, sample)
			}
			if re := codec.Encode(decoded); !bytes.Equal(re, golden) {
				t.Fatalf("decode→encode changed the bytes:\n got  %x\n want %x", re, golden)
			}
		})
	}
	// Every vector belongs to a registered type, so a renamed or
	// removed frame cannot leave a stale vector behind.
	files, err := filepath.Glob(filepath.Join(dir, "*.hex"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := codec.New(strings.TrimSuffix(filepath.Base(f), ".hex")); !ok {
			t.Errorf("%s: no registered frame type", f)
		}
	}
}

// fill sets every exported field reachable from v to a distinct
// non-zero value, so every branch of a frame's encoder writes bytes.
// Integers grow with the visit counter past one varint byte.
func fill(v reflect.Value, seq *int) {
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n) * 1000)
	case reflect.Uint8:
		v.SetUint(uint64(n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), seq)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seq)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, seq)
			fill(e, seq)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), seq)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), seq)
			}
		}
	}
}

// hexLines renders b as hex, 32 bytes to a line.
func hexLines(b []byte) string {
	var sb strings.Builder
	for len(b) > 0 {
		n := min(len(b), 32)
		sb.WriteString(hex.EncodeToString(b[:n]))
		sb.WriteByte('\n')
		b = b[n:]
	}
	return sb.String()
}
