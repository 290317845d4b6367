package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// fuzzLimits keeps fuzz memory bounded: a hostile header may claim huge
// counts, and the fuzzer should explore the guard paths, not the allocator.
var fuzzLimits = Limits{MaxElements: 1 << 12, MaxBlobLen: 1 << 12, MaxPayload: 1 << 16}

// FuzzDecode feeds arbitrary bytes to the decoder and round-trips every
// message that decodes: decode → re-encode → decode must reproduce the
// identical byte stream (the codec is canonical). It also decodes each
// input through a 16-byte read buffer, where every fixed-size payload spans
// many read windows: that must yield the same messages and fail at the
// same message.
func FuzzDecode(f *testing.F) {
	f.Add(AppendInt64s(nil, 1, []int64{1, -5, 1 << 40}))
	f.Add(AppendInt32s(nil, 2, []int32{0, -1}))
	f.Add(AppendFloat64s(nil, 3, []float64{3.14, -0.5}))
	f.Add(AppendFloat32s(nil, 4, []float32{1.5}))
	f.Add(AppendStrings(nil, 5, []string{"hello", "", "wörld"}))
	f.Add(AppendBytes(nil, 6, []byte{0, 1, 2, 255}))
	f.Add(AppendBools(nil, 7, []bool{true, false}))
	f.Add(AppendHeader(nil, 8, KindString, 3)) // truncated variable frame
	f.Add([]byte("VSITxxxxxxxxxxxxxxxx"))
	f.Add([]byte("not the protocol at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		d.SetLimits(fuzzLimits)
		small := NewDecoder(bufio.NewReaderSize(bytes.NewReader(data), 16))
		small.SetLimits(fuzzLimits)
		for i := 0; ; i++ {
			m, err := d.Next()
			ms, errs := small.Next()
			if (err == nil) != (errs == nil) {
				t.Fatalf("message %d: whole-buffer decode err %v, 16-byte-window decode err %v", i, err, errs)
			}
			if err != nil {
				return // malformed input must error, never panic or OOM
			}
			var out bytes.Buffer
			if err := NewEncoder(&out).Message(m); err != nil {
				// A decoded bytes message always has exactly Count blobs, so
				// re-encoding can only fail for kinds Message cannot express;
				// none exist today.
				t.Fatalf("re-encode of decoded message failed: %v", err)
			}
			var outs bytes.Buffer
			if err := NewEncoder(&outs).Message(ms); err != nil {
				t.Fatalf("re-encode of 16-byte-window message failed: %v", err)
			}
			if !bytes.Equal(out.Bytes(), outs.Bytes()) {
				t.Fatalf("message %d differs through a 16-byte window:\n  whole %x\n  small %x", i, out.Bytes(), outs.Bytes())
			}
			d2 := NewDecoder(bytes.NewReader(out.Bytes()))
			d2.SetLimits(fuzzLimits)
			m2, err := d2.Next()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			var out2 bytes.Buffer
			if err := NewEncoder(&out2).Message(m2); err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(out.Bytes(), out2.Bytes()) {
				t.Fatalf("codec not canonical:\n  first  %x\n  second %x", out.Bytes(), out2.Bytes())
			}
		}
	})
}
