package core

import (
	"sync"
	"sync/atomic"
)

// FrameBuf is a pooled, refcounted envelope buffer: the allocation unit of
// the broadcast hot path. A broadcast encodes its envelope once into a
// FrameBuf drawn from a sync.Pool, then every consumer — each client queue
// slot, a relay worker's input ring, a writer mid-drain — holds its own
// reference. The journal tap holds none: JournalSink.Record copies the bytes
// it keeps before returning. The last Release returns the buffer to the
// pool, so the steady-state fan-out cost is refcount arithmetic, not
// allocation: encode-once becomes allocate-rarely.
//
// Ownership discipline (the lifetime rules the -race stress tests guard):
//
//   - GetFrame returns a buffer the caller owns with one reference.
//   - A holder that keeps the buffer past a call boundary takes its own
//     reference with Retain before the handoff returns, and pairs it with
//     exactly one Release when done. frameRing.push retains internally; a
//     callee that only copies the bytes before returning, as
//     JournalSink.Record does, takes no reference.
//   - Bytes must not be read after the holder's Release, and never mutated
//     after the first handoff. The framedebug build tag enforces the former
//     by poisoning buffers on their way back to the pool.
//
// Release panics on over-release in every build; retain-after-free and
// read-after-release are detected under the framedebug tag (see
// framebuf_debug.go).
type FrameBuf struct {
	b    []byte
	refs atomic.Int32
	// keys are the interest keys of the encoded envelope — sample channel
	// names or updated parameter names — so asynchronous consumers (relay
	// workers) can match the frame against a client's interest set without
	// re-decoding it. Empty means the frame is not interest-filtered and
	// goes to everyone. The slice rides the pooled buffer (capacity reused,
	// strings cleared on release) under the same lifetime rules as b.
	keys []string
	// unpooled marks wrapper frames (NewFrame) whose bytes the pool must
	// never recycle or poison: the caller owns the backing array.
	unpooled bool
	// push marks the first sample (and first blob) broadcast after an applied
	// steer: observer-tier delivery flushes it at once instead of holding it
	// for the coalescing interval (see relay.go). Steering-tier delivery,
	// which holds nothing, ignores it.
	push bool
}

// maxPooledFrame bounds the capacity a buffer may keep when it returns to
// the pool; a one-off giant sample must not pin its arena forever.
const maxPooledFrame = 1 << 20

// frameClassCaps are the pool size-class ceilings. One pool served fine
// while every broadcast was a ~100-byte sample, but the blob frame class
// mixes 64KB–1MB pixel payloads into the same traffic: a shared pool would
// thrash — a control broadcast grabs a megabyte arena and pins it for a
// 200-byte ack's lifetime, or a pixel frame draws a small buffer and
// reallocs — so buffers are classed by capacity. Get rounds a cold refill
// up to its class ceiling, and Release files the buffer under the class its
// actual capacity fits, so growth migrates buffers upward instead of
// wasting them.
var frameClassCaps = [...]int{4 << 10, 64 << 10, 256 << 10, maxPooledFrame}

var framePools [len(frameClassCaps)]sync.Pool

func init() {
	for i := range framePools {
		framePools[i].New = func() any { return new(FrameBuf) }
	}
}

// frameClassFor returns the index of the smallest size class holding n
// bytes, or -1 when n exceeds every ceiling (the buffer is unpoolable).
//
//steer:hotpath
func frameClassFor(n int) int {
	for i, c := range frameClassCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetFrame returns a pooled buffer with one reference and at least capHint
// capacity, drawn from the smallest size class that holds it. Exported for
// tests and in-process sinks; sessions draw every broadcast frame from
// here.
//
//steer:hotpath
func GetFrame(capHint int) *FrameBuf {
	cls := frameClassFor(capHint)
	pool := cls
	if pool < 0 {
		// Oversize request: borrow a struct from the top class; Release will
		// drop the arena rather than pool it.
		pool = len(frameClassCaps) - 1
	}
	fb := framePools[pool].Get().(*FrameBuf)
	if cap(fb.b) < capHint {
		// Round a cold refill up to the class ceiling so the buffer serves
		// any request in its class without reallocating.
		c := capHint
		if cls >= 0 {
			c = frameClassCaps[cls]
		}
		//steer:allow hotpathalloc cold pool-refill branch; a warm pool reuses capacity and the benchmarks hold 0 allocs/op
		fb.b = make([]byte, 0, c)
	}
	fb.b = fb.b[:0]
	fb.keys = fb.keys[:0]
	fb.push = false
	fb.refs.Store(1)
	return fb
}

// NewFrame wraps caller-owned bytes in an unpooled FrameBuf with one
// reference: the refcount protocol without the pool (recovery frames, test
// fixtures). Release never recycles or poisons it.
func NewFrame(b []byte) *FrameBuf {
	fb := &FrameBuf{b: b, unpooled: true}
	fb.refs.Store(1)
	return fb
}

// Bytes returns the encoded frame. Valid only while the caller holds a
// reference; never mutate it.
func (f *FrameBuf) Bytes() []byte { return f.b }

// Keys returns the frame's interest keys (see the field doc); same lifetime
// rules as Bytes.
func (f *FrameBuf) Keys() []string { return f.keys }

// setKeys records the frame's interest keys, reusing the slice capacity a
// pooled buffer already carries. Only the sole owner (before any handoff)
// may set keys, under the same rule as AppendBytes.
func (f *FrameBuf) setKeys(keys []string) {
	f.keys = append(f.keys[:0], keys...)
}

// appendKey adds one interest key; same ownership rule as setKeys.
func (f *FrameBuf) appendKey(key string) {
	f.keys = append(f.keys, key)
}

// Len returns the encoded frame length.
func (f *FrameBuf) Len() int { return len(f.b) }

// Refs returns the current reference count; a debugging and test aid, racy
// by nature against concurrent holders.
func (f *FrameBuf) Refs() int32 { return f.refs.Load() }

// AppendBytes appends p to the frame. Only the sole owner (refcount one,
// before any handoff) may grow a frame; sessions encode through
// encodeEnvelope instead.
func (f *FrameBuf) AppendBytes(p []byte) { f.b = append(f.b, p...) }

// Retain adds a reference. The caller must already hold one (a buffer at
// zero may be back in the pool).
func (f *FrameBuf) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("core: FrameBuf retained after release")
	}
}

// Release drops one reference; the last release returns a pooled buffer to
// the pool (poisoning it first under the framedebug tag). Releasing below
// zero panics: every Retain pairs with exactly one Release.
func (f *FrameBuf) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("core: FrameBuf over-released")
	}
	if f.unpooled {
		return
	}
	poisonFrame(f.b)
	// File the buffer under the class its actual capacity fits — a buffer
	// grown past its birth class migrates up — and drop arenas no class
	// holds so a one-off giant frame cannot pin its memory forever.
	cls := frameClassFor(cap(f.b))
	if cls < 0 {
		f.b = nil
		cls = 0
	}
	// Clear key strings so a pooled buffer cannot pin them; the slice
	// capacity itself is the reusable asset.
	for i := range f.keys {
		f.keys[i] = ""
	}
	f.keys = f.keys[:0]
	f.push = false
	framePools[cls].Put(f)
}

// releaseFrames releases every frame in frames and nils the slots so a
// reused scratch slice cannot pin buffers.
func releaseFrames(frames []*FrameBuf) {
	for i := range frames {
		frames[i].Release()
		frames[i] = nil
	}
}
