package core

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzFloorFrames drives the floor-control message handlers —
// msgRequestMaster, msgReleaseMaster, msgHeartbeat — with hostile frames:
// fuzz-chosen flag words, aux values, sequence numbers, frame counts and
// trailing bytes, assembled as raw wire headers rather than through the
// encoder (the encoder only produces well-formed flag combinations; an
// attacker is not so constrained). Every input must either fail to decode
// or dispatch cleanly onto a live session whose floor invariants hold
// afterwards: the master is always one of the attached clients or nobody,
// the pending queue never exceeds the attached population, and neither
// decode nor dispatch panics or wedges the session.
func FuzzFloorFrames(f *testing.F) {
	// Canonical encodings seed the corpus, plus raw headers the encoder
	// would never emit (junk flags, huge nframes, absurd aux).
	f.Add(fuzzSeed(&envelope{Type: msgRequestMaster, Seq: 1}), []byte(nil))
	f.Add(fuzzSeed(&envelope{Type: msgRequestMaster, Seq: 2, NoWait: true}), []byte(nil))
	f.Add(fuzzSeed(&envelope{Type: msgRequestMaster, Seq: 3, Steal: true}), []byte(nil))
	f.Add(fuzzSeed(&envelope{Type: msgReleaseMaster, Seq: 4}), []byte(nil))
	f.Add(fuzzSeed(&envelope{Type: msgHeartbeat}), []byte(nil))
	for _, typ := range []int64{int64(msgRequestMaster), int64(msgReleaseMaster), int64(msgHeartbeat)} {
		f.Add(wire.AppendInt64s(nil, tagHeader,
			[]int64{ProtoVersion, typ, 9, ^int64(0), -1, 1 << 40}), []byte("junk tail"))
		f.Add(wire.AppendInt64s(nil, tagHeader,
			[]int64{ProtoVersion, typ, 0, flagNoWait | flagSteal | flagWantMaster, 1 << 62, 3}),
			[]byte{0xff, 0x00, 0x53, 0x43})
	}

	f.Fuzz(func(t *testing.T, frame, tail []byte) {
		dec := wire.NewDecoder(bytes.NewReader(append(frame, tail...)))
		dec.SetLimits(serverLimits)
		e, err := decodeEnvelope(dec, serverEnvelopeBudget, new(envScratch))
		if err != nil {
			return // hostile input rejected at the codec: the common, good case
		}
		switch e.Type {
		case msgRequestMaster, msgReleaseMaster, msgHeartbeat, msgDetach:
		default:
			return // fuzzer wandered onto another message type; out of scope
		}

		// A fresh two-client session per decoded input keeps every run
		// independent: "a" holds the floor (first attach), "b" is the
		// hostile sender.
		s := NewSession(SessionConfig{
			Name: "floor-fuzz", Writer: &inlineWriter{batch: 8},
		})
		defer s.Close()
		var conns []*clientConn
		for _, name := range []string{"a", "b"} {
			cc, err := s.admit(&attachMsg{Name: name}, newCodec(discardConn{}))
			if err != nil {
				t.Fatalf("admit %q: %v", name, err)
			}
			cc.welcomed.Store(true)
			conns = append(conns, cc)
		}

		done, err := s.dispatch(conns[1], e)
		_ = err // a dispatch error detaches the client; it must not corrupt the floor
		if done && e.Type != msgDetach {
			t.Fatalf("dispatch(%d) reported detach for a non-detach frame", e.Type)
		}

		st := s.FloorStats()
		switch st.Master {
		case "a", "b", "":
		default:
			t.Fatalf("master %q is not an attached client", st.Master)
		}
		if st.Pending < 0 || st.Pending > 2 {
			t.Fatalf("pending = %d with 2 attached clients", st.Pending)
		}
		// The session must still serve legitimate traffic after the hostile
		// frame: a release plus a plain request from "a" always ends with
		// "a" holding the floor.
		s.dispatch(conns[1], &envelope{Type: msgReleaseMaster, Seq: 100})
		s.dispatch(conns[0], &envelope{Type: msgRequestMaster, Seq: 101})
		if got := s.Master(); got != "a" {
			t.Fatalf("session wedged after hostile frame: master %q, want \"a\"", got)
		}
	})
}
