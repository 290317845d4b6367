package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, write func(*Encoder) error) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := write(NewEncoder(&buf)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	m, err := NewDecoder(&buf).Next()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return m
}

func TestInt32RoundTrip(t *testing.T) {
	in := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 42}
	m := roundTrip(t, func(e *Encoder) error { return e.Int32s(7, in) })
	if m.Header.Tag != 7 || m.Header.Kind != KindInt32 {
		t.Fatalf("header = %+v", m.Header)
	}
	if !reflect.DeepEqual(m.Int32s, in) {
		t.Fatalf("got %v want %v", m.Int32s, in)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	in := []int64{0, math.MaxInt64, math.MinInt64, -5}
	m := roundTrip(t, func(e *Encoder) error { return e.Int64s(9, in) })
	if !reflect.DeepEqual(m.Int64s, in) {
		t.Fatalf("got %v want %v", m.Int64s, in)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{0, 1.5, -2.25, math.MaxFloat32, math.SmallestNonzeroFloat32}
	m := roundTrip(t, func(e *Encoder) error { return e.Float32s(1, in) })
	if !reflect.DeepEqual(m.Float32s, in) {
		t.Fatalf("got %v want %v", m.Float32s, in)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	in := []float64{0, math.Pi, -math.E, math.MaxFloat64}
	m := roundTrip(t, func(e *Encoder) error { return e.Float64s(2, in) })
	if !reflect.DeepEqual(m.Float64s, in) {
		t.Fatalf("got %v want %v", m.Float64s, in)
	}
}

func TestFloatNaNRoundTrip(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float64s(3, []float64{math.NaN()}) })
	if !math.IsNaN(m.Float64s[0]) {
		t.Fatalf("NaN did not survive: %v", m.Float64s[0])
	}
}

func TestStringRoundTrip(t *testing.T) {
	in := []string{"", "hello", "grid steering", "ünïcode ♞"}
	m := roundTrip(t, func(e *Encoder) error { return e.Strings(4, in) })
	if !reflect.DeepEqual(m.Strings, in) {
		t.Fatalf("got %q want %q", m.Strings, in)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	in := []byte{0, 255, 1, 2, 3}
	m := roundTrip(t, func(e *Encoder) error { return e.Bytes(5, in) })
	if len(m.Blobs) != 1 || !bytes.Equal(m.Blobs[0], in) {
		t.Fatalf("got %v want %v", m.Blobs, in)
	}
}

func TestEmptyArrays(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float64s(8, nil) })
	if m.Len() != 0 {
		t.Fatalf("len = %d, want 0", m.Len())
	}
}

func TestScalarHelpers(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Int(1, -77); err != nil {
		t.Fatal(err)
	}
	if err := e.Float(2, 3.25); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	m1, err := d.Expect(1)
	if err != nil || m1.Int64s[0] != -77 {
		t.Fatalf("int scalar: %v %v", m1, err)
	}
	m2, err := d.Expect(2)
	if err != nil || m2.Float64s[0] != 3.25 {
		t.Fatalf("float scalar: %v %v", m2, err)
	}
}

func TestExpectTagMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Int(10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf).Expect(11); err == nil {
		t.Fatal("want tag mismatch error")
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("XXXXxxxxxxxxxxxxxxxx")
	if _, err := NewDecoder(buf).Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Int(1, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 250 // corrupt kind byte
	if _, err := NewDecoder(bytes.NewReader(b)).Next(); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Float64s(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-4]
	if _, err := NewDecoder(bytes.NewReader(b)).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestOversizeCountRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Int32s(1, []int32{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Patch the count field to something enormous.
	b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewDecoder(bytes.NewReader(b)).Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestConversionFloat32ToFloat64(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float32s(1, []float32{1.5, -2}) })
	got, err := m.AsFloat64s()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1.5 || got[1] != -2 {
		t.Fatalf("got %v", got)
	}
}

func TestConversionIntWidths(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Int32s(1, []int32{7, -8}) })
	got, err := m.AsInt64s()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != -8 {
		t.Fatalf("got %v", got)
	}
}

func TestConversionRejectsFloatToInt(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float64s(1, []float64{1.5}) })
	if _, err := m.AsInt64s(); !errors.Is(err, ErrKindClash) {
		t.Fatalf("err = %v, want ErrKindClash", err)
	}
}

func TestConversionFloat64ToFloat32Narrows(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float64s(1, []float64{math.Pi}) })
	got, err := m.AsFloat32s()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != float32(math.Pi) {
		t.Fatalf("got %v", got[0])
	}
}

func TestAsString(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.String(1, "abc") })
	s, err := m.AsString()
	if err != nil || s != "abc" {
		t.Fatalf("got %q, %v", s, err)
	}
	m2 := roundTrip(t, func(e *Encoder) error { return e.Strings(1, []string{"a", "b"}) })
	if _, err := m2.AsString(); err == nil {
		t.Fatal("want error for multi-string message")
	}
}

func TestMessageStream(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	for i := 0; i < 100; i++ {
		if err := e.Int(uint32(i), int64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(&buf)
	for i := 0; i < 100; i++ {
		m, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.Tag != uint32(i) || m.Int64s[0] != int64(i*i) {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestReEncodeMessage(t *testing.T) {
	m := roundTrip(t, func(e *Encoder) error { return e.Float32s(9, []float32{1, 2, 3}) })
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Message(m); err != nil {
		t.Fatal(err)
	}
	m2, err := NewDecoder(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("re-encode changed message: %+v vs %+v", m, m2)
	}
}

// Property: every float64 payload survives a round trip bit-exactly.
func TestQuickFloat64RoundTrip(t *testing.T) {
	f := func(tag uint32, v []float64) bool {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Float64s(tag, v); err != nil {
			return false
		}
		m, err := NewDecoder(&buf).Next()
		if err != nil || m.Header.Tag != tag || m.Len() != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(m.Float64s[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string arrays survive round trips.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(tag uint32, v []string) bool {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Strings(tag, v); err != nil {
			return false
		}
		m, err := NewDecoder(&buf).Next()
		if err != nil || m.Len() != len(v) {
			return false
		}
		for i := range v {
			if m.Strings[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: int32 payloads survive and decode never panics on random bytes.
func TestQuickInt32RoundTrip(t *testing.T) {
	f := func(tag uint32, v []int32) bool {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Int32s(tag, v); err != nil {
			return false
		}
		m, err := NewDecoder(&buf).Next()
		return err == nil && reflect.DeepEqual(append([]int32{}, v...), append([]int32{}, m.Int32s...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage returns an error, never panics.
func TestQuickDecodeGarbage(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(bytes.NewReader(b))
		for {
			if _, err := d.Next(); err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCountFrames counts frames from every Append builder, all seven kinds,
// including zero-count frames and empty strings and blobs: after each
// append the count must match the frames written so far, and the decoder
// must read back exactly that many.
func TestCountFrames(t *testing.T) {
	if n := CountFrames(nil); n != 0 {
		t.Fatalf("empty buffer: %d frames", n)
	}
	appends := []func([]byte) []byte{
		func(b []byte) []byte { return AppendInt32s(b, 1, []int32{1, -2, 3}) },
		func(b []byte) []byte { return AppendInt32s(b, 1, nil) },
		func(b []byte) []byte { return AppendInt64s(b, 2, []int64{math.MaxInt64}) },
		func(b []byte) []byte { return AppendInt64s(b, 2, nil) },
		func(b []byte) []byte { return AppendFloat32s(b, 3, []float32{0.5, 1}) },
		func(b []byte) []byte { return AppendFloat32s(b, 3, nil) },
		func(b []byte) []byte { return AppendFloat64s(b, 4, []float64{1, 2, 3, 4}) },
		func(b []byte) []byte { return AppendFloat64s(b, 4, nil) },
		func(b []byte) []byte {
			b = AppendHeader(b, 4, KindFloat64, 2)
			return AppendFloat64(AppendFloat64(b, 1), 2)
		},
		func(b []byte) []byte { return AppendStrings(b, 5, []string{"alpha", "", "gamma"}) },
		func(b []byte) []byte { return AppendStrings(b, 5, []string{""}) },
		func(b []byte) []byte { return AppendStrings(b, 5, nil) },
		func(b []byte) []byte { return AppendBytes(b, 6, []byte{1, 2, 3}) },
		func(b []byte) []byte { return AppendBytes(b, 6, nil) },
		func(b []byte) []byte { return AppendBools(b, 7, []bool{true, false, true}) },
		func(b []byte) []byte { return AppendBools(b, 7, nil) },
	}
	var buf []byte
	for i, app := range appends {
		buf = app(buf)
		if n := CountFrames(buf); n != i+1 {
			t.Fatalf("after %d appends: CountFrames = %d", i+1, n)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf))
	decoded := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode frame %d: %v", decoded, err)
		}
		decoded++
	}
	if decoded != len(appends) {
		t.Fatalf("decoded %d frames, counted %d", decoded, len(appends))
	}
}
