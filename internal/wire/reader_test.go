package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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

// TestDecodeAcrossReadWindows: a stream of every kind, including a
// fixed-size payload larger than one read buffer, decodes identically
// however the bytes arrive — through a 16-byte buffer, one byte per read or
// half of each read — and a message cut at any byte offset is an error,
// never a message.
func TestDecodeAcrossReadWindows(t *testing.T) {
	big := make([]float64, 4096)
	for i := range big {
		big[i] = float64(i)*0.25 - 512
	}
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i)
	}
	var stream []byte
	var ends []int // byte offset at which each message ends
	mark := func() { ends = append(ends, len(stream)) }
	stream = AppendInt32s(stream, 1, []int32{-1, 2, 1 << 30})
	mark()
	stream = AppendInt64s(stream, 2, []int64{-1 << 40, 0, 7})
	mark()
	stream = AppendFloat32s(stream, 3, []float32{1.5, -0.125})
	mark()
	stream = AppendFloat64s(stream, 4, big)
	mark()
	stream = AppendBools(stream, 5, []bool{true, false, true})
	mark()
	stream = AppendStrings(stream, 6, []string{"", "kinetic", strings.Repeat("long name ", 10), "kinetic"})
	mark()
	stream = AppendBytes(stream, 7, blob)
	mark()
	stream = AppendFloat64s(stream, 8, big[:3])
	mark()

	decodeAll := func(d *Decoder) ([]*Message, error) {
		var msgs []*Message
		for {
			m, err := d.Next()
			if err != nil {
				if m != nil {
					t.Fatalf("Next returned a message with error %v", err)
				}
				return msgs, err
			}
			msgs = append(msgs, m)
		}
	}
	want, err := decodeAll(NewDecoder(bytes.NewReader(stream)))
	if err != io.EOF || len(want) != len(ends) {
		t.Fatalf("whole-buffer decode: %d messages, %v", len(want), err)
	}
	if !reflect.DeepEqual(want[3].Float64s, big) {
		t.Fatal("whole-buffer decode corrupted the large float64 frame")
	}

	for name, r := range map[string]io.Reader{
		"bufio16":  bufio.NewReaderSize(bytes.NewReader(stream), 16),
		"onebyte":  iotest.OneByteReader(bytes.NewReader(stream)),
		"halfread": iotest.HalfReader(bytes.NewReader(stream)),
	} {
		got, err := decodeAll(NewDecoder(r))
		if err != io.EOF || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decode differs from the whole-buffer decode (%d messages, %v)", name, len(got), err)
		}
	}

	// Each cut decodes from the start of the message it falls in: the
	// messages before it are the whole-buffer decode's, checked above.
	start := 0
	for i, end := range ends {
		for cut := start; cut < end; cut++ {
			got, err := decodeAll(NewDecoder(bytes.NewReader(stream[start:cut])))
			if err == nil || len(got) != 0 {
				t.Fatalf("message %d cut at byte %d: %d messages, err %v; want an error and no message", i, cut, len(got), err)
			}
		}
		start = end
	}
}
