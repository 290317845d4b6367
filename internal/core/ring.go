package core

import "sync"

// frameRing is a client queue of the broadcast hot path: a ring of
// *FrameBuf with one short critical section per push. Its overflow is its
// policy. A lossy ring (the sample queues, and the control queue of a
// session without a journal) overwrites its oldest slot in O(1), which is
// drop-on-slow-client and freshest-wins. A lossless ring (the control queue
// of a journaled session, whose clients are promised the full event
// history) doubles in place instead, up to maxCtrlQueue slots, and past
// that refuses the frame: the client is beyond saving. The per-ring mutex
// is private to one client, so broadcasts to different clients never
// contend with each other — only a broadcast and that client's drainer can
// meet here, for a few pointer moves.
//
// Producers are the broadcast paths (many, concurrent); the consumer is the
// pool writer that won the client handle's edge trigger, draining in FIFO
// order. Refcounts: push takes its own reference on the queued frame and
// releases any slot it overwrites; drainInto transfers the slot references
// to the caller, who releases them after the write.
type frameRing struct {
	mu  sync.Mutex
	buf []*FrameBuf
	// base is the initial buffer. A grown lossless ring goes back to it
	// when a drain empties the ring, so a burst's memory is returned.
	base []*FrameBuf
	// tail is the next slot to read, head the next to write; n is the live
	// count (head == tail means empty at n == 0, full at n == len(buf)).
	head, tail, n int
	// lossless makes a full ring grow instead of evicting; set before the
	// ring is shared and never changed.
	lossless bool
	// closed discards further pushes: set when the client is dropped, so a
	// broadcast racing the drop cannot strand references in a ring nobody
	// will drain.
	closed bool
}

// maxCtrlQueue bounds a lossless ring: a client that falls this many
// control frames behind is beyond saving. At the bound the slots hold
// maxCtrlQueue pointers (128 KiB).
const maxCtrlQueue = 16384

func newFrameRing(capacity int) *frameRing {
	if capacity <= 0 {
		capacity = 16
	}
	buf := make([]*FrameBuf, capacity)
	return &frameRing{buf: buf, base: buf}
}

func (r *frameRing) next(i int) int {
	if i++; i == len(r.buf) {
		return 0
	}
	return i
}

// push enqueues fb, retaining it, and reports whether a frame was lost.
// When the ring is full, a lossy ring overwrites and releases its oldest
// entry (the frame that arrived first is the one a slow client can best
// afford to lose); a lossless ring grows, and at maxCtrlQueue slots refuses
// fb without retaining it. Pushes on a closed ring are discarded.
//
//steer:hotpath
//steer:owns
func (r *frameRing) push(fb *FrameBuf) (lost bool) {
	r.mu.Lock() //steer:allow hotpathalloc per-ring mutex, never contended with s.mu; held O(1) slot ops only (DESIGN.md §4.1)
	if r.closed {
		r.mu.Unlock()
		return false
	}
	var old *FrameBuf
	if r.n == len(r.buf) {
		switch {
		case !r.lossless:
			old = r.buf[r.tail]
			r.buf[r.tail] = nil
			r.tail = r.next(r.tail)
			r.n--
		case len(r.buf) < maxCtrlQueue:
			r.grow()
		default:
			r.mu.Unlock()
			return true
		}
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

// grow doubles a full ring (capped at maxCtrlQueue), unwrapping it so the
// oldest frame lands in slot 0; the caller holds r.mu.
//
//steer:coldpath a lossless ring grows only while its writer is behind a control burst
func (r *frameRing) grow() {
	buf := make([]*FrameBuf, min(2*len(r.buf), maxCtrlQueue))
	k := copy(buf, r.buf[r.tail:])
	copy(buf[k:], r.buf[:r.tail])
	clear(r.buf)
	r.buf, r.tail, r.head = buf, 0, r.n
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
	if r.n == 0 && len(r.buf) > len(r.base) {
		r.buf, r.head, r.tail = r.base, 0, 0
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
