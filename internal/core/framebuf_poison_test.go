//go:build framedebug

package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/wire"
)

// TestPoisonOnRelease (framedebug builds only): a pooled frame's bytes are
// overwritten the moment its last reference drops, so any holder that kept
// a raw []byte past its Release reads poison instead of silently racing
// the buffer's next user.
func TestPoisonOnRelease(t *testing.T) {
	if !FrameDebug {
		t.Fatal("framedebug tag not in effect")
	}
	fb := GetFrame(32)
	fb.AppendBytes([]byte("sensitive-frame-bytes"))
	leaked := fb.Bytes() // a contract violation, kept deliberately
	fb.Retain()
	fb.Release()
	for _, b := range leaked {
		if b == FramePoison {
			t.Fatal("frame poisoned while a reference was still held")
		}
	}
	fb.Release() // last reference: pool return + poison
	for i, b := range leaked {
		if b != FramePoison {
			t.Fatalf("byte %d = %#x after final release, want poison %#x", i, b, FramePoison)
		}
	}
}

// TestScratchPoisonOnReset (framedebug builds only): a window into a decode
// scratch that escapes its envelope without being copied out reads poison
// as soon as the scratch is reset, instead of whatever the next envelope
// decodes into the same arena. Blob bytes belong to the envelope and stay.
func TestScratchPoisonOnReset(t *testing.T) {
	var buf []byte
	buf = wire.AppendFloat64s(buf, tagSampleData, []float64{1, 2, 3})
	buf = wire.AppendInt64s(buf, tagSampleMeta, []int64{4, 5})
	buf = wire.AppendStrings(buf, tagSampleName, []string{"x"})
	buf = wire.AppendBytes(buf, tagBlobData, []byte("owned"))
	dec := wire.NewDecoder(bytes.NewReader(buf))
	var sc envScratch
	frames := make([]wire.Message, 4)
	for i := range frames {
		if err := sc.next(dec, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	blob := frames[3].Blobs[0] // what parseBlob hands the envelope
	sc.reset()
	for _, f := range frames[0].Float64s {
		if math.Float64bits(f) != scratchPoison {
			t.Fatalf("float window after reset = %v, want poison", frames[0].Float64s)
		}
	}
	for _, v := range frames[1].Int64s {
		if uint64(v) != scratchPoison {
			t.Fatalf("int window after reset = %v, want poison", frames[1].Int64s)
		}
	}
	if s := frames[2].Strings[0]; s != poisonString {
		t.Fatalf("string window after reset = %q, want poison", s)
	}
	if string(blob) != "owned" {
		t.Fatalf("blob bytes poisoned: %q", blob)
	}
}

// TestUnpooledFramesNeverPoisoned: NewFrame wraps caller-owned bytes; the
// pool must neither recycle nor poison them.
func TestUnpooledFramesNeverPoisoned(t *testing.T) {
	raw := []byte("caller-owned")
	fb := NewFrame(raw)
	fb.Release()
	if raw[0] == FramePoison {
		t.Fatal("unpooled frame poisoned")
	}
}
