package journal

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkJournalAppend measures the broadcast-path cost of durability:
// one Record of a pre-encoded 256-byte envelope, with a snapshot provider
// so compaction bounds the mirror as it does in a hub session. "inline"
// flushes per append (standalone journal), "syncer" is the hub
// configuration where the hot path only touches the mirror and a write
// buffer and a per-shard syncer batches flush+fsync. "pooled" is the
// syncer configuration fed the way a session's tap is: every record a
// fresh pooled frame (GetFrame → AppendBytes → Record → Release), one in
// five a state record, so a journal that kept the frame would drain the
// pool and show it here.
func BenchmarkJournalAppend(b *testing.B) {
	frame := make([]byte, 256)
	for i := range frame {
		frame[i] = byte(i)
	}
	snapshot := [][]byte{make([]byte, 256)}
	for _, mode := range []string{"inline", "syncer", "pooled"} {
		b.Run(mode, func(b *testing.B) {
			j, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			j.SetSnapshot(func() [][]byte { return snapshot })
			if mode != "inline" {
				sy := NewSyncer(time.Millisecond)
				defer sy.Close()
				sy.Watch(j)
			}
			fb := core.NewFrame(frame)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "pooled" {
					tap(j, i, frame)
					continue
				}
				j.Record(core.JournalEvent, fb)
			}
		})
	}
}

// tap journals payload the way a session broadcast does: a pooled frame,
// recorded, then released by its last fan-out holder. Every fifth record
// is state, the rest samples.
func tap(j *Journal, i int, payload []byte) {
	class := core.JournalSample
	if i%5 == 0 {
		class = core.JournalState
	}
	fb := core.GetFrame(len(payload))
	fb.AppendBytes(payload)
	j.Record(class, fb)
	fb.Release()
}

// TestJournalTapAllocFree: in steady state the tap allocates nothing per
// record — the caller's pooled frame goes back to the pool, and the
// journal's own arena chunks, mirror and batch slices amortise to zero.
func TestJournalTapAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the non-race run enforces this")
	}
	j, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetSnapshot(func() [][]byte { return [][]byte{make([]byte, 370)} })
	// A syncer that never sweeps on its own: the test runs the maintenance
	// every 64 records, as a hub shard's sweep would.
	sy := NewSyncer(time.Hour)
	defer sy.Close()
	sy.Watch(j)
	payload := make([]byte, 370)
	i := 0
	step := func() {
		tap(j, i, payload)
		if i%64 == 63 {
			j.Maintain()
		}
		i++
	}
	for k := 0; k < 8192; k++ { // warm: slices grown, a compaction behind us
		step()
	}
	if allocs := testing.AllocsPerRun(4096, step); allocs != 0 {
		t.Fatalf("journal tap: %v allocs/record, want 0", allocs)
	}
}

// BenchmarkCatchupReplay measures what one late joiner costs the session: a
// full mirror replay of an event/sample history (the compaction-bounded
// catch-up a client attaching mid-run receives).
func BenchmarkCatchupReplay(b *testing.B) {
	for _, records := range []int{128, 1024} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			j, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			fb := core.NewFrame(make([]byte, 256))
			for i := 0; i < records; i++ {
				class := core.JournalEvent
				if i%8 == 0 {
					class = core.JournalSample
				}
				j.Record(class, fb)
			}
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				j.Replay(func(class core.JournalClass, f []byte) bool {
					if class == core.JournalEvent || class == core.JournalSample {
						n++
						bytes += int64(len(f))
					}
					return true
				})
				if n != records {
					b.Fatalf("replayed %d records, want %d", n, records)
				}
			}
			b.ReportMetric(float64(records), "frames/op")
		})
	}
}
