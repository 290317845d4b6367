package journal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// heldBytes is the memory the mirror's records keep reachable: one whole
// chunk for every run of arena frames laid out back to back, plus the
// capacity of every frame with its own allocation (snapshot frames, frames
// over a quarter chunk). A chunk that reappears after a gap is counted
// again, so the figure can only overstate.
func heldBytes(j *Journal) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	held := 0
	var next uintptr // where the next frame of the current run would start
	for _, r := range j.recs {
		if len(r.frame) == 0 {
			continue
		}
		if r.class == recSnapshot || len(r.frame) > arenaChunk/4 {
			held += cap(r.frame)
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(r.frame)))
		if p != next {
			held += arenaChunk
		}
		next = p + uintptr(len(r.frame))
	}
	return held
}

// TestMirrorMemoryBounded asserts the mirror's memory bound (Options
// CompactBytes) on the shape of the real tap: sample-sized pooled frames,
// samples plus state, a snapshot provider and inline maintenance. While a
// mirrored record pinned its pooled buffer, the figure was CompactRecords
// × the 4 KB pool class — 16 MB by default.
func TestMirrorMemoryBounded(t *testing.T) {
	state := make([]byte, 370)
	j, err := Open(Options{Dir: t.TempDir(), Snapshot: func() [][]byte { return [][]byte{state} }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	payload := make([]byte, 370)
	// Survivors: the snapshot frame and the freshest sample (no events are
	// recorded).
	bound := j.opts.CompactBytes + 2*arenaChunk + len(state) + len(payload)
	peak := 0
	for i := 0; i < 50000; i++ {
		class := core.JournalSample
		if i%5 == 0 {
			class = core.JournalState
		}
		payload[0] = byte(i)
		fb := core.GetFrame(len(payload))
		fb.AppendBytes(payload)
		j.Record(class, fb)
		fb.Release()
		if i%64 == 0 || i == 49999 {
			peak = max(peak, heldBytes(j))
		}
	}
	st := j.Stats()
	if st.Compactions < 10 {
		t.Fatalf("only %d compactions over 50k records", st.Compactions)
	}
	if peak > bound {
		t.Fatalf("mirror held %d bytes at peak, bound %d (CompactBytes %d + 2 chunks + survivors)",
			peak, bound, j.opts.CompactBytes)
	}
	t.Logf("peak %d bytes held over %d compactions (bound %d)", peak, st.Compactions, bound)
}

// TestRecoveryBoundsDeclaredLength: a length prefix that declares more
// bytes than the segment holds is a torn tail, recognised before it sizes
// any allocation — a 100-byte file must not cost a 64 MB buffer.
func TestRecoveryBoundsDeclaredLength(t *testing.T) {
	dir := t.TempDir()
	var hdr [segHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	seg := append([]byte(nil), hdr[:]...)
	good := [][]byte{[]byte("event-one"), []byte("event-two")}
	for _, f := range good {
		seg = appendRecord(seg, recEvent, f)
	}
	goodSize := len(seg)
	var pre [recPrefixSize]byte
	binary.BigEndian.PutUint32(pre[0:4], maxRecordBytes)
	seg = append(seg, pre[:]...)
	if len(seg) > 100 {
		t.Fatalf("fixture is %d bytes, want at most 100", len(seg))
	}
	seg = append(seg, make([]byte, 100-len(seg))...)
	if err := os.WriteFile(filepath.Join(dir, "journal-00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	j, err := Open(Options{Dir: dir})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("recovering a 100-byte segment allocated %d bytes", grew)
	}
	_, frames := replayAll(j)
	if len(frames) != len(good) || string(frames[0]) != "event-one" || string(frames[1]) != "event-two" {
		t.Fatalf("recovered %q, want the good prefix %q", frames, good)
	}
	if st := j.Stats(); st.TruncatedBytes != int64(100-goodSize) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, 100-goodSize)
	}
}
