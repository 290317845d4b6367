package journal

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRecordKeepsNoReference pins the copy-in contract of the journal tap:
// Record keeps no reference to the caller's pooled buffer — not for the
// mirror, not for the pending disk batch — so the buffer goes straight back
// to the pool on the caller's Release, and whatever the pool's next user
// writes into it never reaches a replay or the disk. (Under -tags
// framedebug the Release poisons the buffer, so any aliasing reads 0xDB.)
func TestRecordKeepsNoReference(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	// A syncer with an hour-long dwell: the record stays in the pending
	// batch until the test calls Maintain.
	sy := NewSyncer(time.Hour)
	defer sy.Close()
	sy.Watch(j)

	want := []byte("tapped-frame")
	fb := core.GetFrame(64)
	fb.AppendBytes(want)
	j.Record(core.JournalEvent, fb)
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after Record = %d, want 1 (the journal keeps no reference)", got)
	}
	fb.Release()

	// Re-draw from the pool (usually the same buffer) and overwrite it.
	reused := core.GetFrame(64)
	reused.AppendBytes(bytes.Repeat([]byte{'X'}, 64))
	defer reused.Release()

	check := func(when string) {
		t.Helper()
		_, frames := replayAll(j)
		if len(frames) != 1 || !bytes.Equal(frames[0], want) {
			t.Fatalf("%s: replay = %q, want [%q]", when, frames, want)
		}
	}
	check("pending batch")
	j.Maintain() // the batch reaches disk from the journal's own copy
	check("after flush")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	check("sealed")

	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, frames := replayAll(j2); len(frames) != 1 || !bytes.Equal(frames[0], want) {
		t.Fatalf("recovered = %q, want [%q]", frames, want)
	}
}

// TestReplayFramesOutliveCompaction: frames a Replay handed out stay valid
// and unchanged after compactions drop their records and the pool recycles
// every buffer the records came from. Zero-copy attach catch-up keeps
// replayed slices past the visit and relies on exactly this.
func TestReplayFramesOutliveCompaction(t *testing.T) {
	j, err := Open(Options{Dir: t.TempDir(), RetainEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetSnapshot(func() [][]byte { return [][]byte{[]byte("S")} })
	tap := func(class core.JournalClass, i int) {
		fb := core.GetFrame(32)
		fb.AppendBytes(frameOf(class, i))
		j.Record(class, fb)
		fb.Release()
	}
	for i := 0; i < 64; i++ {
		tap(core.JournalEvent, i)
		tap(core.JournalSample, i)
	}

	var kept, copies [][]byte
	j.Replay(func(_ core.JournalClass, frame []byte) bool {
		kept = append(kept, frame)
		copies = append(copies, append([]byte(nil), frame...))
		return true
	})
	for round := 0; round < 2; round++ {
		j.Compact()
		for i := 0; i < 256; i++ {
			tap(core.JournalEvent, 1000+i)
		}
		runtime.GC()
	}
	if st := j.Stats(); st.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2", st.Compactions)
	}
	for i := range kept {
		if !bytes.Equal(kept[i], copies[i]) {
			t.Fatalf("kept frame %d changed after compaction: %q, want %q", i, kept[i], copies[i])
		}
	}
}

// TestReplaySurvivesConcurrentCompaction: a replay that grabbed the mirror
// must read every frame intact for its whole visit even if a compaction
// swaps the mirror mid-replay. (Under -tags framedebug a frame aliasing a
// pooled buffer would read poisoned; under -race, a use-after-pool report.)
func TestReplaySurvivesConcurrentCompaction(t *testing.T) {
	j, err := Open(Options{Dir: t.TempDir(), RetainEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetSnapshot(func() [][]byte { return [][]byte{[]byte("S")} })
	for i := 0; i < 64; i++ {
		fb := core.GetFrame(16)
		fb.AppendBytes(frameOf(core.JournalState, i))
		j.Record(core.JournalState, fb)
		fb.Release()
	}
	j.Maintain()

	compacted := make(chan struct{})
	j.Replay(func(class core.JournalClass, frame []byte) bool {
		select {
		case <-compacted:
		default:
			// Compact once, from inside the visit: every remaining frame of
			// this replay's view is dropped from the mirror while we still
			// read it.
			go func() { j.Compact(); close(compacted) }()
			<-compacted
		}
		if len(frame) == 0 || frame[0] == core.FramePoison && frame[1] == core.FramePoison {
			t.Error("replayed frame recycled mid-visit")
			return false
		}
		return true
	})
}
