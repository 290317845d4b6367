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

func TestFrameRingTryPushNoEvict(t *testing.T) {
	r := newFrameRing(2)
	a, b, c := NewFrame([]byte("a")), NewFrame([]byte("b")), NewFrame([]byte("c"))
	if !r.tryPush(a) || !r.tryPush(b) {
		t.Fatal("tryPush refused a free slot")
	}
	if r.tryPush(c) {
		t.Fatal("tryPush overwrote a full ring")
	}
	got := r.drainInto(nil, 0)
	if len(got) != 2 || got[0].Bytes()[0] != 'a' || got[1].Bytes()[0] != 'b' {
		t.Fatalf("ring reordered or lost frames: %d", len(got))
	}
	releaseFrames(got)
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
