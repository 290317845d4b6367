package core

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// fuzzSeed encodes one envelope for the corpus, failing silently on
// malformed constructions (the fuzzer only needs bytes).
func fuzzSeed(e *envelope) []byte {
	buf, _ := encodeEnvelope(nil, e)
	return buf
}

// fuzzEnvelopes is the seed corpus the envelope fuzz targets share: one
// envelope of every message shape.
func fuzzEnvelopes() []*envelope {
	view := &ViewState{Seq: 3, Eye: [3]float64{1, 2, 3}, FovY: 0.7, VizParams: map[string]float64{"iso": 0.5}}
	sample := NewSample(9)
	sample.Channels["phi"] = Channel{Dims: [3]int{2, 1, 1}, Data: []float64{1, 2}}
	sample.Channels["seg"] = Scalar(0.25)
	params := []Param{
		{Name: "g", Type: FloatParam, Value: FloatValue(1), Min: 0, Max: 2},
		{Name: "mode", Type: ChoiceParam, Value: StringValue("x"), Choices: []string{"x", "y"}},
	}
	return []*envelope{
		{Type: msgAttach, Attach: &attachMsg{Name: "a", Session: "s", WantMaster: true}},
		{Type: msgWelcome, Welcome: &welcomeMsg{
			SessionName: "s", AppName: "app", ClientName: "c", Master: "m",
			Params: params,
			View:   view,
		}},
		{Type: msgSample, Sample: sample},
		{Type: msgSetParam, Seq: 4, Sets: []ParamSet{
			{Name: "g", Value: FloatValue(1.5)}, {Name: "b", Value: BoolValue(true)},
		}},
		{Type: msgViewUpdate, View: view},
		{Type: msgBlob, Blob: &Blob{Stream: "pixels", Seq: 2, Width: 2, Height: 1, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{Type: msgCommand, Command: cmdPause},
		{Type: msgAck, Seq: 1, Ack: &ackMsg{Code: codeBadValue, Err: "no"}},
		{Type: msgEvent, Event: "paused"},
		{Type: msgRequestMaster, Seq: 5, NoWait: true},
		{Type: msgRequestMaster, Seq: 6, Steal: true},
		{Type: msgReleaseMaster, Seq: 7},
		{Type: msgHeartbeat},
		{Type: msgMasterChanged, Target: "m", Reason: FloorExpired},
		{Type: msgAck, Seq: 8, Ack: &ackMsg{OK: true, Code: codeFloorQueued, Err: `queued at 1 behind "m"`}},
		{Type: msgAttach, Seq: 1, Attach: &attachMsg{
			Name: "obs", Session: "s", Priority: 3, Tier: TierObserver, Replay: ReplayEvents,
			Subs: []Subscription{ChannelSub("phi"), ParamSub("g")},
		}},
		{Type: msgWelcome, Seq: 1, Welcome: &welcomeMsg{
			SessionName: "s", AppName: "app", ClientName: "obs", Role: RoleObserver, Master: "m",
			Params: params, LeaseMillis: 1500, Policy: FloorPriority, FloorSeq: 12,
			Tier: TierObserver, ObserverMillis: 25,
		}},
		{Type: msgParamUpdate, Params: []Param{
			{Name: "n", Type: IntParam, Value: IntValue(-4), Min: -10, Max: 10, Help: "count"},
			{Name: "on", Type: BoolParam, Value: BoolValue(true)},
		}},
		{Type: msgSetView, Seq: 9, View: view},
		{Type: msgSubscribe, Seq: 10, Subs: []Subscription{ChannelSub("phi"), ParamSub("g")}},
		{Type: msgSubscribe, Seq: 11, SubAll: true},
		{Type: msgUnsubscribe, Seq: 12, Subs: []Subscription{ChannelSub("seg")}},
		{Type: msgUnsubscribe, Seq: 13},
		{Type: msgHandoffMaster, Seq: 14, Target: "obs"},
		{Type: msgDetach, Seq: 15},
	}
}

// fuzzLimits keeps fuzz memory bounded: the fuzzer should explore the
// guard paths, not the allocator.
var fuzzLimits = wire.Limits{MaxElements: 1 << 12, MaxBlobLen: 1 << 12, MaxPayload: 1 << 16}

// FuzzEnvelopeRoundTrip drives the envelope codec with arbitrary byte
// streams, seeded with one envelope of every message type. Anything that
// decodes must re-encode canonically: encode(decode(x)) must be a fixed
// point. Inputs that do not decode must fail with an error — never a panic
// or an unbounded allocation.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, e := range fuzzEnvelopes() {
		f.Add(fuzzSeed(e))
	}
	f.Add([]byte("VSIT junk that is not a frame"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder(bytes.NewReader(data))
		dec.SetLimits(fuzzLimits)
		e, err := decodeEnvelope(dec, 1<<20, new(envScratch))
		if err != nil {
			return
		}
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			// Decoded envelopes of known types always re-encode; an encode
			// failure here means decode accepted something malformed.
			t.Fatalf("re-encode of decoded envelope failed: %v", err)
		}
		dec2 := wire.NewDecoder(bytes.NewReader(buf))
		dec2.SetLimits(fuzzLimits)
		e2, err := decodeEnvelope(dec2, 1<<20, new(envScratch))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		buf2, err := encodeEnvelope(nil, e2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("envelope codec not canonical:\n  first  %x\n  second %x", buf, buf2)
		}
	})
}

// FuzzEnvelopeStream decodes a byte stream of several envelopes the way a
// connection does: one wire decoder and one scratch, reused from envelope
// to envelope. Every envelope that decoded must outlive the decodes after
// it: once the stream is exhausted, each must still re-encode to exactly
// the bytes it re-encoded to right after its own decode. A window into the
// scratch that escaped without a copy fails this, because later envelopes
// (or, under framedebug, the reset poison) overwrite it.
func FuzzEnvelopeStream(f *testing.F) {
	var all []byte
	seeds := fuzzEnvelopes()
	for i, e := range seeds {
		all = append(all, fuzzSeed(e)...)
		// Each envelope followed by the next: the pairs that put one
		// shape's fields in the arenas another shape just used.
		f.Add(append(fuzzSeed(e), fuzzSeed(seeds[(i+1)%len(seeds)])...))
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder(bytes.NewReader(data))
		dec.SetLimits(fuzzLimits)
		var sc envScratch
		var decoded []*envelope
		var encoded [][]byte
		for {
			e, err := decodeEnvelope(dec, 1<<20, &sc)
			if err != nil {
				break // the stream is desynchronised after any error
			}
			buf, err := encodeEnvelope(nil, e)
			if err != nil {
				t.Fatalf("re-encode of decoded envelope %d failed: %v", len(decoded), err)
			}
			decoded = append(decoded, e)
			encoded = append(encoded, buf)
		}
		for i, e := range decoded {
			buf, err := encodeEnvelope(nil, e)
			if err != nil {
				t.Fatalf("envelope %d no longer encodes after later decodes: %v", i, err)
			}
			if !bytes.Equal(buf, encoded[i]) {
				t.Fatalf("envelope %d changed after later decodes:\n  then %x\n  now  %x", i, encoded[i], buf)
			}
		}
	})
}
