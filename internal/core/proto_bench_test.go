package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"testing"

	"repro/internal/wire"
)

// The protocol v1 baseline: the gob envelope shape this package shipped
// before the wire-native codec, kept here (and only here) so the benchmark
// quantifies what the redesign bought.
type gobEnvelope struct {
	Type uint8
	Seq  uint64

	Sample *Sample
	Params []gobParam
}

type gobParam struct {
	Name            string
	Value, Min, Max float64
	Help            string
}

// benchSample builds the benchmark payload: one bulk channel of n floats
// plus a scalar, the shape every steered demo emits.
func benchSample(n int) *Sample {
	s := NewSample(12345)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	s.Channels["phi"] = Channel{Dims: [3]int{16, 16, n / 256}, Data: data}
	s.Channels["seg"] = Scalar(0.7)
	return s
}

// BenchmarkProtocolCodec compares the gob v1 baseline against the wire v2
// codec on the protocol's two dominant frames: bulk samples and small
// control updates. The gob encoder streams to io.Discard with its type info
// already amortised — the steady-state per-client cost v1 paid on every
// broadcast.
func BenchmarkProtocolCodec(b *testing.B) {
	sample := benchSample(4096)
	v2sample := &envelope{Type: msgSample, Sample: sample}
	v1sample := &gobEnvelope{Type: uint8(msgSample), Sample: sample}
	v2control := &envelope{Type: msgParamUpdate, Params: []Param{
		{Name: "miscibility-g", Type: FloatParam, Value: FloatValue(4.5), Min: 0, Max: 6, Help: "coupling"},
	}}
	v1control := &gobEnvelope{Type: uint8(msgParamUpdate), Params: []gobParam{
		{Name: "miscibility-g", Value: 4.5, Min: 0, Max: 6, Help: "coupling"},
	}}

	b.Run("encode-sample/gob", func(b *testing.B) {
		enc := gob.NewEncoder(io.Discard)
		if err := enc.Encode(v1sample); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(v1sample); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-sample/wire", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = encodeEnvelope(buf[:0], v2sample); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-control/gob", func(b *testing.B) {
		enc := gob.NewEncoder(io.Discard)
		if err := enc.Encode(v1control); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(v1control); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-control/wire", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = encodeEnvelope(buf[:0], v2control); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip-sample/gob", func(b *testing.B) {
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(v1sample); err != nil {
				b.Fatal(err)
			}
			var out gobEnvelope
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip-sample/wire", func(b *testing.B) {
		buf, err := encodeEnvelope(nil, v2sample)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(buf)
		dec := wire.NewDecoder(rd)
		var scratch []byte
		var sc envScratch // one per connection, as a codec keeps it
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if scratch, err = encodeEnvelope(scratch[:0], v2sample); err != nil {
				b.Fatal(err)
			}
			rd.Reset(scratch)
			dec.Reset(rd)
			if _, err := decodeEnvelope(dec, clientEnvelopeBudget, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchScalarSample is the sample steerbench's application emits every
// step: four scalar channels, ~350 bytes on the wire. It is what a late
// joiner decodes over and over while replaying the journal.
func benchScalarSample() *Sample {
	s := NewSample(12345)
	s.Channels["kinetic"] = Scalar(1.25)
	s.Channels["particles"] = Scalar(200)
	s.Channels["interactions"] = Scalar(19900)
	s.Channels["echo"] = Scalar(42)
	return s
}

// decodeCase is one encoded envelope to decode.
type decodeCase struct {
	name string
	buf  []byte
}

// envelopeDecodeCases are the encoded shapes BenchmarkEnvelopeDecode and
// TestSampleDecodeAllocBound decode: the replay-dominant scalar sample, a
// bulk sample, and a small control update.
func envelopeDecodeCases(tb testing.TB) []decodeCase {
	var cases []decodeCase
	for _, tc := range []struct {
		name string
		e    *envelope
	}{
		{"sample-4scalar", &envelope{Type: msgSample, Sample: benchScalarSample()}},
		{"sample-4096", &envelope{Type: msgSample, Sample: benchSample(4096)}},
		{"param-update", &envelope{Type: msgParamUpdate, Params: []Param{
			{Name: "miscibility-g", Type: FloatParam, Value: FloatValue(4.5), Min: 0, Max: 6, Help: "coupling"},
		}}},
	} {
		buf, err := encodeEnvelope(nil, tc.e)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, decodeCase{tc.name, buf})
	}
	return cases
}

// sinkEnvelope keeps the benchmark's decode result live.
var sinkEnvelope *envelope

// BenchmarkEnvelopeDecode measures the client-side decode a late joiner
// pays per replayed frame, through one reused decoder and scratch: a
// connection's steady state.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, tc := range envelopeDecodeCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			fd := newFrameDecoder()
			b.SetBytes(int64(len(tc.buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := fd.decode(tc.buf)
				if err != nil {
					b.Fatal(err)
				}
				sinkEnvelope = e
			}
		})
	}
}

// BenchmarkProtocolFanout pins the encode-once property: broadcasting one
// sample to N clients costs one serialization, so allocs/op stays flat as
// the client count grows from 1 to 16 (only channel sends scale).
func BenchmarkProtocolFanout(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients-%d", n), func(b *testing.B) {
			// Fake attached clients: real queues, no sockets, so the
			// measurement isolates encode + enqueue.
			s := NewSession(SessionConfig{SampleQueue: 2, Writer: &inlineWriter{batch: 2}})
			s.mu.Lock()
			for i := 0; i < n; i++ {
				if _, err := s.admitLocked(&attachMsg{Name: fmt.Sprintf("c%02d", i)}, newCodec(discardConn{})); err != nil {
					b.Fatal(err)
				}
			}
			s.rebuildClientsLocked()
			s.mu.Unlock()
			sample := benchSample(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.broadcastSample(sample)
			}
		})
	}
}
