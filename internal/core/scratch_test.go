package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// streamCodec returns a codec whose reads decode the given byte stream: the
// client side of a connection, without a socket.
func streamCodec(t *testing.T, envs ...*envelope) *codec {
	t.Helper()
	var stream []byte
	for _, e := range envs {
		var err error
		if stream, err = encodeEnvelope(stream, e); err != nil {
			t.Fatal(err)
		}
	}
	return &codec{dec: wire.NewDecoder(bytes.NewReader(stream)), budget: clientEnvelopeBudget}
}

// TestDecodedEnvelopeOutlivesNext: everything an envelope hands its
// consumer must survive the connection decoding further envelopes into the
// same scratch. A sample, a parameter update, a view, a blob and an attach
// are decoded through one codec, then a second round of each with other
// values; the first round must still read as sent, and appending to one
// channel's Data must not write into another channel's.
func TestDecodedEnvelopeOutlivesNext(t *testing.T) {
	round := func(k float64) []*envelope {
		sample := NewSample(int64(k))
		sample.Channels["a"] = Channel{Dims: [3]int{2, 1, 1}, Data: []float64{k, k + 1}}
		sample.Channels["b"] = Scalar(k + 2)
		sample.Channels["c"] = Channel{Dims: [3]int{3, 1, 1}, Data: []float64{k + 3, k + 4, k + 5}}
		name := fmt.Sprintf("p%v", k)
		return []*envelope{
			{Type: msgSample, Sample: sample},
			{Type: msgParamUpdate, Params: []Param{
				{Name: name, Type: ChoiceParam, Value: StringValue("x"), Choices: []string{"x", name}},
				{Name: "g", Type: FloatParam, Value: FloatValue(k), Min: 0, Max: 10 * k},
			}},
			{Type: msgViewUpdate, View: &ViewState{Seq: uint64(k), Eye: [3]float64{k, k, k}, VizParams: map[string]float64{name: k}}},
			{Type: msgBlob, Blob: &Blob{Stream: name, Seq: uint64(k), Data: []byte{byte(k), 1, 2, 3}}},
			{Type: msgAttach, Attach: &attachMsg{Name: name, Session: "s", Subs: []Subscription{ChannelSub(name), ParamSub("g")}}},
		}
	}
	first, second := round(1), round(7)
	c := streamCodec(t, append(first, second...)...)

	var want [][]byte
	var got []*envelope
	for range first {
		e, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, e), append(want, buf)
	}
	for range second {
		if _, err := c.read(); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range got {
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Fatalf("envelope %d (type %d) changed after later decodes", i, e.Type)
		}
	}

	chans := got[0].Sample.Channels
	if a := chans["a"].Data; a[0] != 1 || a[1] != 2 || chans["c"].Data[2] != 6 {
		t.Fatalf("sample data = %v / %v", a, chans["c"].Data)
	}
	for name, ch := range chans {
		if cap(ch.Data) != len(ch.Data) {
			t.Fatalf("channel %q: cap %d > len %d, an append would reach its neighbour", name, cap(ch.Data), len(ch.Data))
		}
	}
	_ = append(chans["a"].Data, -1, -1, -1)
	if b := chans["b"].Data[0]; b != 3 {
		t.Fatalf("appending to channel a overwrote channel b: %v", b)
	}
	if p := got[1].Params[0]; p.Name != "p1" || p.Choices[1] != "p1" {
		t.Fatalf("param update = %+v", p)
	}
	if b := got[3].Blob; b.Stream != "p1" || !bytes.Equal(b.Data, []byte{1, 1, 2, 3}) {
		t.Fatalf("blob = %+v", b)
	}
	if a := got[4].Attach; a.Name != "p1" || a.Subs[0] != ChannelSub("p1") {
		t.Fatalf("attach = %+v", a)
	}
}

// TestSampleDecodeAllocBound holds the late joiner's per-sample decode to
// what the sample it returns needs: the envelope, the Sample and its map,
// and one backing array for every channel. Names come from the decoder's
// intern table and every field frame from the codec's scratch.
func TestSampleDecodeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	fd, buf := newFrameDecoder(), envelopeDecodeCases(t)[0].buf
	decode := func() {
		if _, err := fd.decode(buf); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs, maxBytes = 6, 1024
	if allocs := testing.AllocsPerRun(1000, decode); allocs > maxAllocs {
		t.Fatalf("4-channel sample decode: %.1f allocs, want <= %d", allocs, maxAllocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > maxBytes {
		t.Fatalf("4-channel sample decode: %d B/op, want <= %d", perOp, maxBytes)
	}
}

// TestDecodeScratchRetentionBounded: a client-side codec runs at the wire
// package's 256 MB default limits, so a peer can make one envelope's
// scratch huge. The codec must give that back once the envelope is
// decoded, not keep it for the life of the connection.
func TestDecodeScratchRetentionBounded(t *testing.T) {
	big := NewSample(1)
	big.Channels["bulk"] = Channel{Dims: [3]int{1 << 20, 1, 1}, Data: make([]float64, 1<<20)} // 8 MB
	big.Channels["bulk"].Data[1<<20-1] = 42
	envs := []*envelope{{Type: msgSample, Sample: big}}
	for i := 0; i < 4; i++ {
		envs = append(envs, &envelope{Type: msgSample, Sample: benchScalarSample()})
	}
	c := streamCodec(t, envs...)

	e, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Sample.Channels["bulk"].Data; len(d) != 1<<20 || d[len(d)-1] != 42 {
		t.Fatalf("bulk channel decoded wrong: len %d", len(d))
	}
	if got := c.scratch.retained(); got > scratchRetainBytes {
		t.Fatalf("after an 8 MB sample the codec retains %d B of scratch, want <= %d", got, scratchRetainBytes)
	}
	for range envs[1:] {
		if _, err := c.read(); err != nil {
			t.Fatal(err)
		}
		if got := c.scratch.retained(); got == 0 || got > scratchRetainBytes {
			t.Fatalf("small samples: scratch retains %d B, want 0 < n <= %d", got, scratchRetainBytes)
		}
	}
}

// TestRecoverAllocBound: Recover decodes every journaled frame through one
// reader, one wire decoder and one scratch. A decoder per frame cost a fresh
// read buffer every time (~66 KB per frame when a decoder held a 32 KB read
// buffer and a 32 KB chunk buffer).
func TestRecoverAllocBound(t *testing.T) {
	const perKind = 4096
	sink := &memSink{}
	for i := 0; i < perKind; i++ {
		s := benchScalarSample()
		s.Step = int64(i)
		for _, e := range []*envelope{
			{Type: msgSample, Sample: s},
			{Type: msgParamUpdate, Params: []Param{{Name: "g", Type: FloatParam, Value: FloatValue(float64(i % 10)), Min: 0, Max: 10}}},
		} {
			buf, err := encodeEnvelope(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			sink.Record(journalClassOf(e.Type), NewFrame(buf))
		}
	}
	s := NewSession(SessionConfig{Journal: sink})
	defer s.Close()
	if err := s.Steered().RegisterFloat("g", 0, 0, 10, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := s.Recover()
	runtime.ReadMemStats(&after)
	if err != nil || n != 2*perKind {
		t.Fatalf("Recover = %d, %v; want %d frames applied", n, err, 2*perKind)
	}
	if ls := s.LastSample(); ls == nil || ls.Step != perKind-1 {
		t.Fatalf("recovered last sample: %+v", ls)
	}
	const maxPerFrame = 2 << 10
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / (2 * perKind); perFrame > maxPerFrame {
		t.Fatalf("Recover allocates %d B per journaled frame, want <= %d", perFrame, maxPerFrame)
	}
}
