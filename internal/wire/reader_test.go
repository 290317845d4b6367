package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestTypedReadersAppend: the typed readers append to the caller's slice,
// keeping what it already holds, and refuse a header of another kind
// without consuming its payload.
func TestTypedReadersAppend(t *testing.T) {
	var buf []byte
	buf = AppendInt64s(buf, 1, []int64{3, -4})
	buf = AppendFloat64s(buf, 2, []float64{0.5})
	buf = AppendStrings(buf, 3, []string{"a", "bc"})
	d := NewDecoder(bytes.NewReader(buf))

	h, err := d.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	ints, err := d.ReadInt64s([]int64{9}, h)
	if err != nil || !reflect.DeepEqual(ints, []int64{9, 3, -4}) {
		t.Fatalf("ReadInt64s = %v, %v", ints, err)
	}
	if h, err = d.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadInt64s(nil, h); !errors.Is(err, ErrKindClash) {
		t.Fatalf("float64 frame read as int64: err = %v, want ErrKindClash", err)
	}
	floats, err := d.ReadFloat64s(nil, h)
	if err != nil || !reflect.DeepEqual(floats, []float64{0.5}) {
		t.Fatalf("ReadFloat64s after the refused read = %v, %v", floats, err)
	}
	if h, err = d.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	strs, err := d.ReadStrings([]string{"z"}, h)
	if err != nil || !reflect.DeepEqual(strs, []string{"z", "a", "bc"}) {
		t.Fatalf("ReadStrings = %q, %v", strs, err)
	}
}

// TestInternedStringsAllocationFree: names a decoder has seen before come
// from its intern table, so a frame of repeated names decodes into a reused
// slice without allocating.
func TestInternedStringsAllocationFree(t *testing.T) {
	frame := AppendStrings(nil, 1, []string{"kinetic", "particles", "interactions", "echo"})
	rd := bytes.NewReader(frame)
	d := NewDecoder(rd)
	var dst []string
	decode := func() {
		rd.Reset(frame)
		d.Reset(rd)
		h, err := d.ReadHeader()
		if err != nil {
			t.Fatal(err)
		}
		if dst, err = d.ReadStrings(dst[:0], h); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding seen names: %.1f allocs, want 0", allocs)
	}
	if !reflect.DeepEqual(dst, []string{"kinetic", "particles", "interactions", "echo"}) {
		t.Fatalf("decoded %q", dst)
	}
}

// TestInternTableBounded: a peer sending ever-new names, or long strings,
// cannot grow a decoder's intern table past its bounds.
func TestInternTableBounded(t *testing.T) {
	names := make([]string, 0, 3*maxInternEntries)
	for i := 0; i < cap(names); i++ {
		names = append(names, fmt.Sprintf("name-%d", i))
	}
	long := strings.Repeat("x", maxInternLen+1)
	names = append(names, long)
	m := roundTrip(t, func(e *Encoder) error { return e.Strings(1, names) })
	if !reflect.DeepEqual(m.Strings, names) {
		t.Fatal("strings corrupted by interning")
	}

	d := NewDecoder(bytes.NewReader(AppendStrings(nil, 1, names)))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if n := len(d.intern); n == 0 || n > maxInternEntries {
		t.Fatalf("intern table holds %d entries, want 1..%d", n, maxInternEntries)
	}
	if _, ok := d.intern[long]; ok {
		t.Fatalf("a %d-byte string was interned (limit %d)", len(long), maxInternLen)
	}
}
