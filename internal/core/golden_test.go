package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// updateGolden rewrites testdata/golden from the codec under test. The
// committed files were written by the codec that still negotiated v3..v5,
// before the v3/v4 paths were deleted, and pin the v5 wire bytes:
// regenerate them only for a deliberate format change, never to make this
// test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current codec")

// msgTypeNames spells each message type for the golden file names.
var msgTypeNames = map[msgType]string{
	msgAttach: "attach", msgWelcome: "welcome", msgSample: "sample",
	msgSetParam: "set-param", msgParamUpdate: "param-update", msgSetView: "set-view",
	msgViewUpdate: "view-update", msgCommand: "command", msgRequestMaster: "request-master",
	msgHandoffMaster: "handoff", msgMasterChanged: "master-changed", msgEvent: "event",
	msgAck: "ack", msgDetach: "detach", msgReleaseMaster: "release-master",
	msgHeartbeat: "heartbeat", msgSubscribe: "subscribe", msgUnsubscribe: "unsubscribe",
	msgBlob: "blob",
}

// goldenName is the corpus file of the i-th fuzzEnvelopes entry.
func goldenName(i int, e *envelope) string {
	return fmt.Sprintf("%02d-%s.bin", i, msgTypeNames[e.Type])
}

// TestGoldenEnvelopes: every envelope of the seed corpus encodes to its
// golden file byte-for-byte, and every golden file decodes to exactly one
// envelope that re-encodes to the same bytes.
func TestGoldenEnvelopes(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	envs := fuzzEnvelopes()
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, e := range envs {
			buf, err := encodeEnvelope(nil, e)
			if err != nil {
				t.Fatalf("%s: %v", goldenName(i, e), err)
			}
			if err := os.WriteFile(filepath.Join(dir, goldenName(i, e)), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, e := range envs {
		name := goldenName(i, e)
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to\n  %x\nwant golden\n  %x", name, got, want)
		}
		dec := wire.NewDecoder(bytes.NewReader(want))
		d, err := decodeEnvelope(dec, clientEnvelopeBudget, new(envScratch))
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if _, err := decodeEnvelope(dec, clientEnvelopeBudget, new(envScratch)); err != io.EOF {
			t.Errorf("%s: after one envelope, decode = %v, want io.EOF", name, err)
		}
		again, err := encodeEnvelope(nil, d)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decodes and re-encodes to\n  %x\nwant golden\n  %x", name, again, want)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(envs) {
		t.Errorf("%d golden files for %d corpus envelopes", len(files), len(envs))
	}
}
