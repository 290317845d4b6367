package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestBoolRoundTrip(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Bools(9, []bool{true, false, true, true}) })
	if m.Header.Kind != KindBool || len(m.Bools) != 4 {
		t.Fatalf("decoded %+v", m)
	}
	want := []bool{true, false, true, true}
	for i, v := range want {
		if m.Bools[i] != v {
			t.Fatalf("bools = %v, want %v", m.Bools, want)
		}
	}
	ints, err := m.AsInt64s()
	if err != nil || ints[0] != 1 || ints[1] != 0 {
		t.Fatalf("AsInt64s = %v, %v", ints, err)
	}
}

func TestAsBoolsConversion(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Int64s(1, []int64{0, 2, -1}) })
	bs, err := m.AsBools()
	if err != nil || bs[0] || !bs[1] || !bs[2] {
		t.Fatalf("AsBools = %v, %v", bs, err)
	}
	m = roundTrip(t, func(e *Encoder) error { return e.Strings(1, []string{"x"}) })
	if _, err := m.AsBools(); !errors.Is(err, ErrKindClash) {
		t.Fatalf("string AsBools err = %v", err)
	}
}

func TestAppendBuildersMatchEncoder(t *testing.T) {
	var streamed bytes.Buffer
	e := NewEncoder(&streamed)
	if err := e.Int64s(7, []int64{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Strings(8, []string{"a", "bc"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Bools(9, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if err := e.Float32s(10, []float32{1.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Int32s(11, []int32{-4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Bytes(12, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	var built []byte
	built = AppendInt64s(built, 7, []int64{1, -2, 3})
	built = AppendStrings(built, 8, []string{"a", "bc"})
	built = AppendBools(built, 9, []bool{true, false})
	built = AppendFloat32s(built, 10, []float32{1.5})
	built = AppendInt32s(built, 11, []int32{-4})
	built = AppendBytes(built, 12, []byte{0xde, 0xad})

	if !bytes.Equal(streamed.Bytes(), built) {
		t.Fatal("append builders and Encoder disagree on the byte stream")
	}
}

// patchCount rewrites the header count field of an encoded frame.
func patchCount(b []byte, count uint32) {
	binary.BigEndian.PutUint32(b[12:16], count)
}

func TestLimitsMaxElements(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Int64s(1, []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxElements: 3})
	if _, err := d.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// At the limit it decodes.
	d = NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxElements: 4})
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
}

func TestLimitsMaxPayloadFixed(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Float64s(1, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxPayload: 99 * 8})
	if _, err := d.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestLimitsMaxPayloadVariableCount(t *testing.T) {
	// A string frame claiming 2^20 elements must be rejected by the length
	// prefixes alone when MaxPayload is small, before any allocation.
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Strings(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	patchCount(b, 1<<20)
	d := NewDecoder(bytes.NewReader(b))
	d.SetLimits(Limits{MaxPayload: 1 << 10})
	if _, err := d.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestLimitsBlobBudget(t *testing.T) {
	// Several blobs, individually small, must not exceed the message payload
	// budget cumulatively.
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Strings(1, []string{"aaaa", "bbbb", "cccc"}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxPayload: 20}) // 3 blobs cost 3*(4+4) = 24 bytes
	if _, err := d.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	d = NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxPayload: 24})
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
}

func TestLimitsMaxBlobLen(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Bytes(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetLimits(Limits{MaxBlobLen: 63})
	if _, err := d.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestHugeCountClaimDoesNotPreallocate(t *testing.T) {
	// A frame header claiming the default-limit maximum count with no data
	// behind it must fail on EOF after bounded allocation, not OOM. The
	// chunked reader allocates as data arrives, so this returns quickly.
	b := AppendHeader(nil, 1, KindFloat64, 0)
	patchCount(b, MaxElements)
	if _, err := NewDecoder(bytes.NewReader(b)).Next(); err == nil {
		t.Fatal("truncated huge frame decoded")
	}
}

// TestDeclaredElementSizeNotPreallocated: a variable-length element is
// allocated as its bytes arrive, not at the length its prefix declares, so
// a 23-byte frame declaring a 64 MiB blob (or string) at the default limits
// fails on EOF after a bounded allocation. Elements past the up-front bound
// still round-trip byte-exact.
func TestDeclaredElementSizeNotPreallocated(t *testing.T) {
	for _, kind := range []Kind{KindBytes, KindString} {
		b := AppendHeader(nil, 1, kind, 1)
		b = binary.BigEndian.AppendUint32(b, 64<<20)
		b = append(b, 1, 2, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewDecoder(bytes.NewReader(b)).Next()
		runtime.ReadMemStats(&after)
		if m != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: truncated 64 MiB element = %v, %v; want io.ErrUnexpectedEOF", kind, m, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
			t.Fatalf("%s: a 23-byte frame declaring 64 MiB allocated %d bytes, want < 4 MiB", kind, grew)
		}
	}

	blob := make([]byte, 3<<20)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	str := strings.Repeat("steer", (2<<20)/5+1)[:2<<20]
	var stream []byte
	stream = AppendBytes(stream, 1, blob)
	stream = AppendStrings(stream, 2, []string{str})
	d := NewDecoder(bytes.NewReader(stream))
	m, err := d.Next()
	if err != nil || len(m.Blobs) != 1 || !bytes.Equal(m.Blobs[0], blob) || cap(m.Blobs[0]) != len(blob) {
		t.Fatalf("3 MiB blob did not round-trip exactly: %v", err)
	}
	if m, err = d.Next(); err != nil || len(m.Strings) != 1 || m.Strings[0] != str {
		t.Fatalf("2 MiB string did not round-trip: %v", err)
	}
}
