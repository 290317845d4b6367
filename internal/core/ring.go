package core

import "sync"

// frameRing is the fixed-capacity client queue of the broadcast hot path: a
// bounded ring of *FrameBuf where a full ring overwrites its oldest slot in
// O(1). It replaces the channel-based queues whose eviction was a
// select/drain retry loop: push is one short critical section per frame, and
// the drop-on-slow-client / freshest-wins-sample policies fall out of the
// overwrite. The per-ring mutex is private to one client, so broadcasts to
// different clients never contend with each other — only a broadcast and
// that client's drainer can meet here, for a few pointer moves.
//
// Producers are the broadcast paths (many, concurrent); the consumer is the
// pool writer that won the client handle's edge trigger, draining in FIFO
// order. Refcounts: push takes its
// own reference on the queued frame and releases any slot it overwrites;
// drainInto transfers the slot references to the caller, who releases them
// after the write.
type frameRing struct {
	mu  sync.Mutex
	buf []*FrameBuf
	// tail is the next slot to read, head the next to write; n is the live
	// count (head == tail means empty at n == 0, full at n == len(buf)).
	head, tail, n int
	// closed discards further pushes: set when the client is dropped, so a
	// broadcast racing the drop cannot strand references in a ring nobody
	// will drain.
	closed bool
}

func newFrameRing(capacity int) *frameRing {
	if capacity <= 0 {
		capacity = 16
	}
	return &frameRing{buf: make([]*FrameBuf, capacity)}
}

func (r *frameRing) next(i int) int {
	if i++; i == len(r.buf) {
		return 0
	}
	return i
}

// push enqueues fb, retaining it; when the ring is full the oldest entry is
// overwritten and released (the frame that arrived first is the one a slow
// client can best afford to lose). It reports whether it evicted. Pushes on
// a closed ring are discarded.
//
//steer:hotpath
//steer:owns
func (r *frameRing) push(fb *FrameBuf) (evicted bool) {
	r.mu.Lock() //steer:allow hotpathalloc per-ring mutex, never contended with s.mu; held O(1) slot ops only (DESIGN.md §4.1)
	if r.closed {
		r.mu.Unlock()
		return false
	}
	var old *FrameBuf
	if r.n == len(r.buf) {
		old = r.buf[r.tail]
		r.buf[r.tail] = nil
		r.tail = r.next(r.tail)
		r.n--
	}
	fb.Retain()
	r.buf[r.head] = fb
	r.head = r.next(r.head)
	r.n++
	r.mu.Unlock()
	if old != nil {
		old.Release() // outside the lock: pool work never extends the critical section
		return true
	}
	return false
}

// tryPush enqueues fb (retaining it) only if a slot is free: the
// no-eviction variant the pre-welcome control path uses, where an overflow
// must stash rather than lose a frame. It reports whether the frame was
// queued; a closed ring reports true (discard, like push).
//
//steer:hotpath
//steer:owns
func (r *frameRing) tryPush(fb *FrameBuf) bool {
	r.mu.Lock() //steer:allow hotpathalloc per-ring mutex, never contended with s.mu; held O(1) slot ops only (DESIGN.md §4.1)
	if r.closed {
		r.mu.Unlock()
		return true
	}
	if r.n == len(r.buf) {
		r.mu.Unlock()
		return false
	}
	fb.Retain()
	r.buf[r.head] = fb
	r.head = r.next(r.head)
	r.n++
	r.mu.Unlock()
	return true
}

// drainInto pops frames in FIFO order, appending to dst until it holds max
// entries (max <= 0 drains everything). Slot references transfer to the
// caller.
//
//steer:hotpath
func (r *frameRing) drainInto(dst []*FrameBuf, max int) []*FrameBuf {
	r.mu.Lock() //steer:allow hotpathalloc per-ring mutex, never contended with s.mu; held O(1) slot ops only (DESIGN.md §4.1)
	for r.n > 0 && (max <= 0 || len(dst) < max) {
		dst = append(dst, r.buf[r.tail])
		r.buf[r.tail] = nil
		r.tail = r.next(r.tail)
		r.n--
	}
	r.mu.Unlock()
	return dst
}

// length returns the live count.
func (r *frameRing) length() int {
	r.mu.Lock() //steer:allow hotpathalloc per-ring mutex, never contended with s.mu; held O(1) slot ops only (DESIGN.md §4.1)
	n := r.n
	r.mu.Unlock()
	return n
}

// closeRelease marks the ring closed and releases everything still queued;
// called exactly once, when the client is dropped.
func (r *frameRing) closeRelease() {
	r.mu.Lock()
	r.closed = true
	var drop []*FrameBuf
	if r.n > 0 {
		drop = make([]*FrameBuf, 0, r.n)
		for r.n > 0 {
			drop = append(drop, r.buf[r.tail])
			r.buf[r.tail] = nil
			r.tail = r.next(r.tail)
			r.n--
		}
	}
	r.mu.Unlock()
	releaseFrames(drop)
}
