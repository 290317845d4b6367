package core

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ---- connection codec ----

// defaultCoalesceBytes is every codec's hybrid egress threshold: frames
// shorter than this are gathered (copied) into one shared iovec before the
// writev, larger frames ride as their own zero-copy iovec entries. ~1KB
// keeps tiny control/ack/sample frames — where an iovec entry costs more
// than the memcpy — out of the kernel's per-segment accounting while bulk
// payloads stay copy-free.
const defaultCoalesceBytes = 1024

// BuffersWriter is the exported half of the vectored-write capability
// probe: a conn implementing it receives each batch as one net.Buffers
// (the codec's reusable iovec scratch, which WriteBuffers consumes exactly
// like (*net.Buffers).WriteTo would). *net.TCPConn and *net.UnixConn get
// the same treatment through the net package's own writev support; conn
// wrappers that want to keep the vectored path must either expose this
// interface or be unwrapped before AcceptConn.
type BuffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// probeVectored reports whether conn can turn a net.Buffers batch into a
// single gathered write. Only the concrete netFD-backed types (whose
// (*net.Buffers).WriteTo reaches writev) and explicit BuffersWriter
// implementations qualify: for anything else — net.Pipe, netsim links,
// opaque middleware wrappers — WriteTo issues one Write per iovec entry, so
// the probe fails closed and newCodec gathers such a conn's whole batch
// into one entry.
func probeVectored(conn net.Conn) bool {
	switch conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	_, ok := conn.(BuffersWriter)
	return ok
}

// gatherAll is the coalesce threshold of a conn without writev: every frame
// is gathered, so each batch is one iovec entry and one Write.
const gatherAll = math.MaxInt

// egressStats counts the egress layer's activity. The session owns one
// instance shared by every admitted client's codec (injected at admit);
// counters are atomics because batches are written per-client concurrently
// and Stats readers never take a lock.
type egressStats struct {
	// batchesVectored/batchesBuffered count batches on conns with and
	// without writev.
	batchesVectored atomic.Uint64
	batchesBuffered atomic.Uint64
	// framesCoalesced/bytesCoalesced count frames (and their bytes) copied
	// into the gather scratch; bytesZeroCopy counts large-frame bytes handed
	// to the kernel without a copy.
	framesCoalesced atomic.Uint64
	bytesCoalesced  atomic.Uint64
	bytesZeroCopy   atomic.Uint64
	// syscallsSaved counts, per batch, the Writes beyond the first that
	// (*net.Buffers).WriteTo would issue for the same iovec without writev:
	// len(iov)-1, always 0 on a conn without writev.
	syscallsSaved atomic.Uint64
}

// codec wraps a conn with the envelope codec and a write lock; envelopes
// may be written from multiple goroutines. Every write is one syscall: a
// batch is one writev (or, on a conn without writev, one gathered Write),
// and a single envelope is one Write.
type codec struct {
	conn net.Conn
	dec  *wire.Decoder
	wmu  sync.Mutex
	// budget bounds the payload bytes one inbound envelope may retain.
	budget int
	// scratch is the connection's decode storage, reused by every read
	// (reads are sequential: one reader per connection).
	scratch envScratch
	// enc is the reusable scratch buffer for per-client envelope writes
	// (handshake frames, acks); broadcasts arrive pre-encoded.
	enc []byte
	// coalesce is the hybrid threshold: frames shorter than it are copied
	// into the gather scratch, frames at or above it become their own
	// zero-copy iovec entries. probeVectored fixes it at construction:
	// defaultCoalesceBytes with writev, gatherAll without. <= 0 disables
	// gathering entirely.
	coalesce int
	// iov is the reusable iovec scratch writeVectoredLocked builds each
	// batch into; vec is the consumable slice header handed to the conn
	// ((*net.Buffers).WriteTo advances and nils what it consumes, so the
	// stable full-length view stays in iov for the post-write scrub).
	iov net.Buffers
	vec net.Buffers
	// gather is the reusable coalesce buffer small frames are copied into;
	// iovec entries alias it, so it is pre-sized per batch and never grows
	// while entries point in.
	gather []byte
	// egr receives egress counters; nil (client-side codecs, not-yet-
	// admitted conns) skips counting.
	egr *egressStats
}

func newCodec(conn net.Conn) *codec {
	coalesce := gatherAll
	if probeVectored(conn) {
		coalesce = defaultCoalesceBytes
	}
	return &codec{
		conn:     conn,
		dec:      wire.NewDecoder(conn),
		budget:   clientEnvelopeBudget,
		coalesce: coalesce,
	}
}

// harden installs the tight inbound limits a session applies to client
// traffic — control-sized frames and a small per-envelope budget — so a
// hostile client cannot grow server memory by streaming bulk frames.
func (c *codec) harden() {
	c.dec.SetLimits(serverLimits)
	c.budget = serverEnvelopeBudget
}

// write encodes and sends one envelope as one Write, applying the write
// deadline if non-zero.
func (c *codec) write(e *envelope, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := encodeEnvelope(c.enc[:0], e)
	if err != nil {
		return err
	}
	c.enc = buf[:0]
	if timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	_, err = c.conn.Write(buf)
	return err
}

// writeBatch sends several pre-encoded envelopes under one lock acquisition
// and one deadline: the unit of work of a pool drain and of a catch-up
// replay chunk.
//
//steer:hotpath
func (c *codec) writeBatch(batch [][]byte, timeout time.Duration) error {
	if len(batch) == 0 {
		return nil
	}
	c.wmu.Lock() //steer:allow hotpathalloc per-connection write mutex serialises this client's batches; never session-wide
	defer c.wmu.Unlock()
	if timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	return c.writeVectoredLocked(batch)
}

// writeVectoredLocked sends one batch of pre-encoded frames as one write.
// Each contiguous run of frames shorter than the coalesce threshold is
// memcpy'd into the reusable gather scratch and rides as one shared iovec
// entry; every frame at or above it becomes its own entry aliasing the
// FrameBuf's bytes — zero copies between encode and kernel. With writev the
// iovec is one syscall; without, the threshold is gatherAll, so the batch
// is one entry and WriteTo issues one Write. The gather scratch is
// pre-sized before any iovec aliases it (an append-grow mid-batch would
// strand earlier entries on the old backing array), and the iovec scratch
// is scrubbed after the write so a released frame's buffer is never pinned
// (or aliased, under framedebug poisoning) between batches. The caller owns
// the batch slices until this returns and must not release them earlier;
// (*net.Buffers).WriteTo consumes c.vec, never the caller's batch.
//
//steer:hotpath
func (c *codec) writeVectoredLocked(batch [][]byte) error {
	// Pass 1: size the gather scratch so pass 2's appends never reallocate
	// while iovec entries alias the backing array.
	need := 0
	for _, buf := range batch {
		if len(buf) < c.coalesce {
			need += len(buf)
		}
	}
	if cap(c.gather) < need {
		c.gather = make([]byte, 0, need) //steer:allow hotpathalloc gather scratch grows to the batch high-water mark once; steady state reuses it
	}
	gather := c.gather[:0]
	iov := c.iov[:0]
	var coalesced, zeroCopy uint64
	runStart := -1 // gather offset where the current small-frame run began
	for _, buf := range batch {
		if len(buf) < c.coalesce {
			if runStart < 0 {
				runStart = len(gather)
			}
			gather = append(gather, buf...)
			coalesced++
			continue
		}
		if runStart >= 0 {
			iov = append(iov, gather[runStart:len(gather):len(gather)])
			runStart = -1
		}
		iov = append(iov, buf)
		zeroCopy += uint64(len(buf))
	}
	if runStart >= 0 {
		iov = append(iov, gather[runStart:len(gather):len(gather)])
	}
	c.gather = gather
	c.iov = iov

	// Hand a consumable header to the conn: WriteTo/WriteBuffers advance
	// (and nil out) c.vec as segments complete, while c.iov keeps the
	// stable full-length view for the scrub below.
	c.vec = iov
	var err error
	if bw, ok := c.conn.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(&c.vec)
	} else {
		_, err = c.vec.WriteTo(c.conn)
	}
	// Scrub: no iovec entry may outlive the batch — the caller releases
	// the frame buffers (back into the pool) as soon as we return.
	for i := range iov {
		iov[i] = nil
	}
	c.vec = nil
	if c.egr != nil {
		if c.coalesce == gatherAll {
			c.egr.batchesBuffered.Add(1)
		} else {
			c.egr.batchesVectored.Add(1)
		}
		c.egr.framesCoalesced.Add(coalesced)
		c.egr.bytesCoalesced.Add(uint64(len(gather)))
		c.egr.bytesZeroCopy.Add(zeroCopy)
		c.egr.syscallsSaved.Add(uint64(len(iov) - 1))
	}
	return err
}

// read receives the next envelope.
func (c *codec) read() (*envelope, error) { return decodeEnvelope(c.dec, c.budget, &c.scratch) }

func (c *codec) close() error { return c.conn.Close() }
