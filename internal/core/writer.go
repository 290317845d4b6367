package core

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClientGone reports a drain attempt on a client already declared dead.
var ErrClientGone = errors.New("core: client gone")

// Writer pool shape: every session — bare or hosted on a hub shard — drains
// its clients through one of these, so a client costs its session no
// goroutine of its own.
const (
	// poolWriters is the writer goroutines per pool. A stalled client holds
	// one for at most one ControlTimeout, so a pool shared by k stalled
	// clients delays the others by at most ⌈k/poolWriters⌉ write deadlines.
	poolWriters = 4
	// poolBatch bounds the envelopes one drain coalesces into a batch write.
	poolBatch = 32
	// poolDirty is the dirty-queue capacity: one slot per potentially-dirty
	// client. 4096 is far beyond the fan-out one pool targets, and overflow
	// falls back to a goroutine rather than blocking or losing the signal.
	poolDirty = 4096
)

// WriterScheduler owns the draining of a session's client outbound queues.
// The session calls ClientReady — possibly concurrently, possibly
// redundantly — whenever a welcomed client has queued output; it must not
// block, and the scheduler drains the client until nothing is left.
// WriterPool is the implementation; SessionConfig.Writer lets a hub shard
// share one pool across its sessions (and tests drain inline).
type WriterScheduler interface {
	ClientReady(*ClientHandle)
}

// ClientHandle is the writer's view of one attached client: a bounded
// outbound queue plus the codec to drain it into.
type ClientHandle struct {
	s  *Session
	cc *clientConn
	// scheduled is the edge-trigger flag that keeps at most one pending
	// drain request per client in flight.
	scheduled atomic.Bool
	// frames/bufs are drainBatch's reusable scratch, what makes a
	// steady-state drain allocation-free. The edge trigger serialises
	// drains per client (at most one writer between markScheduled and
	// clearScheduled), which is what makes the reuse safe; see drainBatch.
	frames []*FrameBuf
	bufs   [][]byte
}

// Name returns the client's session-assigned name.
func (h *ClientHandle) Name() string { return h.cc.name }

// pending returns the number of queued envelopes awaiting a drain.
func (h *ClientHandle) pending() int { return h.cc.ctrl.length() + h.cc.out.length() }

// markScheduled flips the edge-trigger flag; it reports true when the caller
// won the race and must enqueue the handle for draining.
func (h *ClientHandle) markScheduled() bool { return h.scheduled.CompareAndSwap(false, true) }

// clearScheduled re-arms the edge trigger. Writers clear it after a drain
// pass and then re-check pending, so an enqueue racing with the drain is
// never lost.
func (h *ClientHandle) clearScheduled() { h.scheduled.Store(false) }

// drainBatch pops up to max queued pre-encoded envelopes and writes their
// bytes to the client in one coalesced batch under the session's
// ControlTimeout — broadcasts were serialized once at enqueue time, so a
// drain moves refcounted buffers, it never re-encodes (and in the steady
// state it never allocates: the pop lands in the handle's reusable scratch,
// and each buffer's reference is released back toward the frame pool after
// the write). It returns the count written and whether more output remained
// queued when it left. A write failure declares the client dead (the
// session's read loop then drops it); drainBatch never blocks on queue
// input, only on the write.
//
// Callers must serialise drainBatch per handle — the markScheduled /
// clearScheduled edge trigger gives exactly that — because the drain
// scratch is reused across calls.
//
//steer:hotpath
func (h *ClientHandle) drainBatch(max int) (int, bool, error) {
	cc := h.cc
	select {
	case <-cc.gone:
		return 0, false, ErrClientGone
	default:
	}
	// Control frames first: a sample burst must not delay events, parameter
	// updates or master changes.
	frames := cc.ctrl.drainInto(h.frames[:0], max)
	frames = cc.out.drainInto(frames, max)
	h.frames = frames
	if len(frames) == 0 {
		return 0, false, nil
	}
	bufs := h.bufs[:0]
	for _, fb := range frames {
		bufs = append(bufs, fb.Bytes())
	}
	h.bufs = bufs
	err := cc.codec.writeBatch(bufs, h.s.cfg.ControlTimeout)
	n := len(frames)
	releaseFrames(frames)
	// Scrub both scratches, not just bufs: releaseFrames nils the slots it
	// was handed, but the handle must not depend on that side effect — a
	// stale *FrameBuf surviving here would pin a released (pooled, possibly
	// already-recycled) buffer reachable between drains, and under
	// framedebug poisoning alias whatever the pool hands out next. Truncate
	// to zero length so the scratch never advertises released entries.
	for i := range frames {
		frames[i] = nil
	}
	for i := range bufs {
		bufs[i] = nil
	}
	h.frames = frames[:0]
	h.bufs = bufs[:0]
	if err != nil {
		cc.markGone()
		return 0, false, err
	}
	return n, h.pending() > 0, nil
}

// WriterPool drains client outbound queues with a fixed set of writer
// goroutines instead of one goroutine per client. A hub shard shares one
// across its sessions; a session created without SessionConfig.Writer owns
// one. Each drain batches a client's queued pre-encoded envelopes into few
// syscalls and reuses the rings' drop-on-slow-client policy — the bounded
// queues evict their oldest entries, the pool never blocks an emitter.
//
// Scheduling is edge-triggered: markScheduled keeps at most one entry per
// client in the dirty queue, so queue capacity bounds clients, not
// messages, and a client emitting thousands of samples between drains costs
// one scheduling slot.
type WriterPool struct {
	dirty   chan *ClientHandle
	batch   int
	closeCh chan struct{}
	wg      sync.WaitGroup
}

// NewWriterPool starts a pool of the standard shape; Close stops it.
func NewWriterPool() *WriterPool { return newWriterPool(poolWriters, poolBatch) }

func newWriterPool(writers, batch int) *WriterPool {
	p := &WriterPool{
		dirty:   make(chan *ClientHandle, poolDirty),
		batch:   batch,
		closeCh: make(chan struct{}),
	}
	p.wg.Add(writers)
	for i := 0; i < writers; i++ {
		go p.run()
	}
	return p
}

// ClientReady implements WriterScheduler. It must not block: the caller is
// the emitting simulation.
func (p *WriterPool) ClientReady(h *ClientHandle) {
	if !h.markScheduled() {
		return // already queued for a drain
	}
	select {
	case p.dirty <- h:
	case <-p.closeCh:
		h.clearScheduled()
	default:
		// Dirty queue full (more live clients than capacity): hand the
		// signal to a goroutine so the emitter still never blocks.
		//steer:allow hotpathalloc overflow fallback only; sized dirty queues make this branch unreachable in steady state
		go func() {
			select {
			case p.dirty <- h:
			case <-p.closeCh:
				h.clearScheduled()
			}
		}()
	}
}

func (p *WriterPool) run() {
	defer p.wg.Done()
	for {
		select {
		case h := <-p.dirty:
			p.drain(h)
		case <-p.closeCh:
			return
		}
	}
}

// drain writes one batch for the client, then re-arms its edge trigger. The
// clear-then-recheck order guarantees an enqueue racing with the batch is
// rescheduled rather than lost.
//
//steer:hotpath
func (p *WriterPool) drain(h *ClientHandle) {
	_, more, err := h.drainBatch(p.batch)
	h.clearScheduled()
	if err != nil {
		return // client declared gone; its session drops it
	}
	if more || h.pending() > 0 {
		p.ClientReady(h)
	}
}

// Close stops the writers and waits for them to exit. Clients still queued
// are not drained; their sessions release the queues when they drop them.
func (p *WriterPool) Close() {
	close(p.closeCh)
	p.wg.Wait()
}
