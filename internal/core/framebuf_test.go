package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestFrameBufRefcountLifecycle(t *testing.T) {
	fb := GetFrame(64)
	fb.AppendBytes([]byte("hello"))
	if fb.Refs() != 1 || fb.Len() != 5 {
		t.Fatalf("fresh frame: refs=%d len=%d", fb.Refs(), fb.Len())
	}
	fb.Retain()
	fb.Retain()
	if fb.Refs() != 3 {
		t.Fatalf("after two retains: refs=%d", fb.Refs())
	}
	fb.Release()
	fb.Release()
	if fb.Refs() != 1 {
		t.Fatalf("after two releases: refs=%d", fb.Refs())
	}
	fb.Release() // back to the pool
}

func TestFrameBufOverReleasePanics(t *testing.T) {
	fb := NewFrame([]byte("x"))
	fb.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	fb.Release()
}

func TestFrameBufPoolReuse(t *testing.T) {
	// A released pooled frame is reusable; its capacity survives the trip.
	fb := GetFrame(512)
	fb.AppendBytes(make([]byte, 300))
	fb.Release()
	got := GetFrame(128)
	defer got.Release()
	if cap(got.Bytes()) == 0 {
		t.Fatal("pool returned frame without capacity")
	}
	if got.Len() != 0 {
		t.Fatalf("pooled frame not reset: len=%d", got.Len())
	}
}

// TestFrameBufStampsDoNotSurvivePoolReuse: a frame's delivery stamps — push,
// interest keys — describe one broadcast; whichever broadcast draws the
// buffer next must start clean, or an unsteered sample would be pushed (or
// filtered by another frame's keys) on a recycled buffer's say-so.
func TestFrameBufStampsDoNotSurvivePoolReuse(t *testing.T) {
	for i := 0; i < 64; i++ {
		fb := GetFrame(128)
		if fb.push || len(fb.keys) != 0 {
			t.Fatalf("round %d: pooled frame arrived stamped: push=%v keys=%v", i, fb.push, fb.keys)
		}
		fb.push = true
		fb.appendKey("phi")
		fb.Release()
	}
}

func TestFrameRingFreshestWins(t *testing.T) {
	r := newFrameRing(4)
	frames := make([]*FrameBuf, 8)
	evictions := 0
	for i := range frames {
		frames[i] = NewFrame([]byte{byte(i)})
		if r.push(frames[i]) {
			evictions++
		}
	}
	if evictions != 4 {
		t.Fatalf("evictions = %d, want 4", evictions)
	}
	got := r.drainInto(nil, 0)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	// The oldest four were overwritten: the survivors are the freshest, in
	// FIFO order.
	for i, fb := range got {
		if want := byte(4 + i); fb.Bytes()[0] != want {
			t.Fatalf("slot %d = %d, want %d (freshest-wins violated)", i, fb.Bytes()[0], want)
		}
	}
	// Evicted frames lost their ring reference; survivors still hold one
	// (transferred to us) plus the producer's.
	for i, fb := range frames {
		want := int32(1) // producer's reference only
		if i >= 4 {
			want = 2 // plus the drained ring reference we now own
		}
		if fb.Refs() != want {
			t.Fatalf("frame %d refs = %d, want %d", i, fb.Refs(), want)
		}
	}
	releaseFrames(got)
}

// TestFrameRingOverflow pins what a full ring does with one more frame
// under each policy, and what drains and closes do afterwards.
func TestFrameRingOverflow(t *testing.T) {
	// fill pushes n one-byte frames valued from, from+1, ... and drops the
	// producer's references, so the ring holds each frame's only one.
	fill := func(t *testing.T, r *frameRing, from, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			fb := NewFrame([]byte{byte(from + i)})
			if r.push(fb) {
				t.Fatalf("push %d lost a frame", from+i)
			}
			fb.Release()
		}
	}
	// drain pops up to max frames (max <= 0: all) and checks they are
	// exactly want frames valued from, from+1, ...
	drain := func(t *testing.T, r *frameRing, max, from, want int) {
		t.Helper()
		got := r.drainInto(nil, max)
		defer releaseFrames(got)
		if len(got) != want {
			t.Fatalf("drained %d frames, want %d", len(got), want)
		}
		for i, fb := range got {
			if v := byte(from + i); fb.Bytes()[0] != v {
				t.Fatalf("slot %d = %d, want %d (FIFO order broken)", i, fb.Bytes()[0], v)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		capacity int
		lossless bool
		run      func(t *testing.T, r *frameRing)
	}{
		{"lossy ring evicts its oldest", 4, false, func(t *testing.T, r *frameRing) {
			oldest := NewFrame([]byte{0})
			r.push(oldest)
			fill(t, r, 1, 3)
			fb := NewFrame([]byte{4})
			if !r.push(fb) {
				t.Fatal("push into a full lossy ring reported no eviction")
			}
			fb.Release()
			if oldest.Refs() != 1 {
				t.Fatalf("evicted frame refs = %d, want 1 (the producer's)", oldest.Refs())
			}
			drain(t, r, 0, 1, 4)
		}},
		{"lossless ring grows across the wrap", 4, true, func(t *testing.T, r *frameRing) {
			fill(t, r, 0, 4)
			drain(t, r, 2, 0, 2)
			fill(t, r, 4, 2)
			if r.n != len(r.buf) || r.tail == 0 {
				t.Fatalf("setup: n=%d slots=%d tail=%d, want a full ring wrapped past slot 0", r.n, len(r.buf), r.tail)
			}
			fill(t, r, 6, 2)
			if len(r.buf) != 8 {
				t.Fatalf("full ring grew to %d slots, want 8", len(r.buf))
			}
			drain(t, r, 0, 2, 6)
		}},
		{"lossless ring refuses at its bound", 64, true, func(t *testing.T, r *frameRing) {
			fb := NewFrame([]byte{0})
			for i := 0; i < maxCtrlQueue; i++ {
				if r.push(fb) {
					t.Fatalf("push %d refused below the bound", i)
				}
			}
			refused := NewFrame([]byte{1})
			if !r.push(refused) {
				t.Fatal("push past maxCtrlQueue was accepted")
			}
			if refused.Refs() != 1 {
				t.Fatalf("refused frame refs = %d, want 1 (not retained)", refused.Refs())
			}
			r.closeRelease()
			if fb.Refs() != 1 {
				t.Fatalf("queued frame refs after close = %d, want 1", fb.Refs())
			}
		}},
		{"grown ring drained empty is back to 64 slots", 64, true, func(t *testing.T, r *frameRing) {
			fill(t, r, 0, 65)
			if len(r.buf) != 128 {
				t.Fatalf("ring holding 65 frames has %d slots, want 128", len(r.buf))
			}
			drain(t, r, 64, 0, 64)
			if len(r.buf) != 128 {
				t.Fatalf("a partial drain resized the ring to %d slots", len(r.buf))
			}
			drain(t, r, 0, 64, 1)
			if len(r.buf) != 64 {
				t.Fatalf("ring drained empty has %d slots, want 64", len(r.buf))
			}
			fill(t, r, 100, 3)
			drain(t, r, 0, 100, 3)
		}},
		{"closed lossless ring discards", 4, true, func(t *testing.T, r *frameRing) {
			fb := NewFrame([]byte{0})
			r.push(fb)
			r.closeRelease()
			if r.push(fb) {
				t.Fatal("push on a closed ring reported a loss")
			}
			if fb.Refs() != 1 {
				t.Fatalf("closed ring kept a reference: refs=%d", fb.Refs())
			}
			drain(t, r, 0, 0, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFrameRing(tc.capacity)
			r.lossless = tc.lossless
			tc.run(t, r)
		})
	}
}

func TestFrameRingClosedDiscards(t *testing.T) {
	r := newFrameRing(2)
	fb := NewFrame([]byte("x"))
	r.push(fb)
	r.closeRelease()
	if fb.Refs() != 1 {
		t.Fatalf("closeRelease kept a reference: refs=%d", fb.Refs())
	}
	if r.push(fb) {
		t.Fatal("push on closed ring reported eviction")
	}
	if fb.Refs() != 1 {
		t.Fatalf("push on closed ring retained: refs=%d", fb.Refs())
	}
	if got := r.drainInto(nil, 0); len(got) != 0 {
		t.Fatalf("closed ring yielded %d frames", len(got))
	}
}

// TestFrameRingConcurrentPushDrain hammers one ring from many producers and
// one consumer under -race: every reference pushed is eventually released
// exactly once (drained or evicted), never twice.
func TestFrameRingConcurrentPushDrain(t *testing.T) {
	r := newFrameRing(8)
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				fb := GetFrame(16)
				fb.AppendBytes([]byte(fmt.Sprintf("%d-%d", p, i)))
				r.push(fb)
				fb.Release()
			}
		}(p)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []*FrameBuf
		for {
			scratch = r.drainInto(scratch[:0], 16)
			if len(scratch) == 0 {
				select {
				case <-stop:
					return
				default:
					continue
				}
			}
			releaseFrames(scratch)
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	r.closeRelease()
}
