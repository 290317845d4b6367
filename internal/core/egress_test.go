// Egress tests: the capability probe, the hybrid coalesce/zero-copy split
// and the one write per batch, failure handling on short writes and expired
// deadlines, the drainBatch scratch scrub, and the cross-conn delivery
// matrix. Run with and without -tags framedebug — the failure tests lean on
// poison-on-release to catch any iovec aliasing a released frame.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// vecDiscardConn is a discardConn that advertises the vectored-write
// capability: WriteBuffers consumes the whole batch like a kernel writev
// would, without moving a byte.
type vecDiscardConn struct{ discardConn }

func (vecDiscardConn) WriteBuffers(v *net.Buffers) (int64, error) {
	var n int64
	for _, b := range *v {
		n += int64(len(b))
	}
	*v = (*v)[:0]
	return n, nil
}

// captureConn records each write — a vectored batch or a plain Write — as
// the entry lengths handed over and the concatenated bytes, so tests can
// assert the hybrid split, the write count and byte-exact output. Wrapped
// in opaqueConn it is a conn without writev.
type captureConn struct {
	discardConn
	mu      sync.Mutex
	batches [][]int // iovec entry lengths per WriteBuffers call
	data    bytes.Buffer
}

func (c *captureConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	var lens []int
	for _, b := range *v {
		lens = append(lens, len(b))
		c.data.Write(b)
		n += int64(len(b))
	}
	c.batches = append(c.batches, lens)
	*v = (*v)[:0]
	return n, nil
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches = append(c.batches, []int{len(p)})
	c.data.Write(p)
	return len(p), nil
}

// shortWriteConn accepts limit bytes across vectored writes, then fails:
// the mid-batch short-write shape of a peer that died with data in flight.
type shortWriteConn struct {
	discardConn
	limit int
}

func (c *shortWriteConn) WriteBuffers(v *net.Buffers) (int64, error) {
	var n int64
	for len(*v) > 0 {
		b := (*v)[0]
		take := len(b)
		if n+int64(take) > int64(c.limit) {
			take = c.limit - int(n)
			if take > 0 {
				(*v)[0] = b[take:]
				n += int64(take)
			}
			return n, errors.New("egress_test: short write")
		}
		n += int64(take)
		(*v)[0] = nil
		*v = (*v)[1:]
	}
	return n, nil
}

// stallConn blocks inside the vectored write until the write deadline set
// by the codec expires: the mid-WriteTo stall of a wedged peer.
type stallConn struct {
	discardConn
	mu       sync.Mutex
	deadline chan struct{} // closed when a write deadline fires
}

func newStallConn() *stallConn { return &stallConn{deadline: make(chan struct{})} }

func (c *stallConn) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		return nil
	}
	c.mu.Lock()
	ch := c.deadline
	c.mu.Unlock()
	go func() {
		time.Sleep(time.Until(t))
		select {
		case <-ch:
		default:
			close(ch)
		}
	}()
	return nil
}

func (c *stallConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.mu.Lock()
	ch := c.deadline
	c.mu.Unlock()
	<-ch
	return 0, os.ErrDeadlineExceeded
}

// opaqueConn hides every capability of the conn it wraps — no io.ReaderFrom,
// no BuffersWriter, no concrete *net.TCPConn — which is what middleware that
// wraps conns without forwarding optional interfaces looks like.
type opaqueConn struct{ inner net.Conn }

func (c opaqueConn) Read(p []byte) (int, error)         { return c.inner.Read(p) }
func (c opaqueConn) Write(p []byte) (int, error)        { return c.inner.Write(p) }
func (c opaqueConn) Close() error                       { return c.inner.Close() }
func (c opaqueConn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c opaqueConn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c opaqueConn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c opaqueConn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c opaqueConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

func TestProbeVectored(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	tcp, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()

	cases := []struct {
		name string
		conn net.Conn
		want bool
	}{
		{"tcp", tcp, true},
		{"pipe", p1, false},
		{"opaque-tcp", opaqueConn{tcp}, false},
		{"buffers-writer", vecDiscardConn{}, true},
		{"discard", discardConn{}, false},
	}
	for _, tc := range cases {
		if got := probeVectored(tc.conn); got != tc.want {
			t.Errorf("probeVectored(%s) = %v, want %v", tc.name, got, tc.want)
		}
		want := gatherAll
		if tc.want {
			want = defaultCoalesceBytes
		}
		if got := newCodec(tc.conn).coalesce; got != want {
			t.Errorf("newCodec(%s).coalesce = %d, want %d", tc.name, got, want)
		}
	}
}

// TestWriteBatchVectoredBytes pins the egress shapes: every batch is one write
// carrying the batch's bytes in order — one writev whose iovec coalesces
// small-frame runs and gives large frames their own entries, or on a conn
// without writev one Write of the whole gathered batch — the egress
// counters account for it, and a single envelope is one Write.
func TestWriteBatchVectoredBytes(t *testing.T) {
	frame := func(n int, fill byte) []byte {
		return bytes.Repeat([]byte{fill}, n)
	}
	// small, small, LARGE, small, LARGE, LARGE, small
	hybrid := [][]byte{
		frame(4, 'a'), frame(4, 'b'), frame(32, 'C'),
		frame(4, 'd'), frame(64, 'E'), frame(32, 'F'), frame(8, 'g'),
	}
	mixed := [][]byte{
		frame(100, 'a'), frame(8<<10, 'B'), frame(100, 'c'), frame(300<<10, 'D'), frame(50, 'e'),
	}
	const mixedBytes = 100 + 8<<10 + 100 + 300<<10 + 50
	type counts struct{ vectored, buffered, frames, coalesced, zeroCopy, saved uint64 }
	cases := []struct {
		name     string
		vectored bool
		coalesce int // 0 keeps newCodec's threshold
		batch    [][]byte
		wantLens []int // entry lengths of the one write
		want     counts
	}{
		{"writev-hybrid", true, 16, hybrid, []int{8, 32, 4, 64, 32, 8}, counts{1, 0, 4, 20, 128, 5}},
		{"writev-no-coalesce", true, -1, hybrid, []int{4, 4, 32, 4, 64, 32, 8}, counts{1, 0, 0, 0, 148, 6}},
		{"no-writev", false, 0, mixed, []int{mixedBytes}, counts{0, 1, 5, mixedBytes, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			capture := &captureConn{}
			var conn net.Conn = capture
			if !tc.vectored {
				conn = opaqueConn{capture}
			}
			c := newCodec(conn)
			if tc.coalesce != 0 {
				c.coalesce = tc.coalesce
			}
			var egr egressStats
			c.egr = &egr
			var want bytes.Buffer
			for _, b := range tc.batch {
				want.Write(b)
			}
			if err := c.writeBatch(tc.batch, time.Second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(capture.data.Bytes(), want.Bytes()) {
				t.Fatalf("output differs from batch concatenation: got %d bytes, want %d", capture.data.Len(), want.Len())
			}
			if len(capture.batches) != 1 {
				t.Fatalf("batch took %d writes, want 1", len(capture.batches))
			}
			if fmt.Sprint(capture.batches[0]) != fmt.Sprint(tc.wantLens) {
				t.Fatalf("write layout = %v, want %v", capture.batches[0], tc.wantLens)
			}
			got := counts{egr.batchesVectored.Load(), egr.batchesBuffered.Load(), egr.framesCoalesced.Load(),
				egr.bytesCoalesced.Load(), egr.bytesZeroCopy.Load(), egr.syscallsSaved.Load()}
			if got != tc.want {
				t.Errorf("egress counters = %+v, want %+v", got, tc.want)
			}
			// Scratches must not pin batch or gather memory between writes.
			for i, b := range c.iov {
				if b != nil {
					t.Errorf("iov[%d] not scrubbed after write", i)
				}
			}
			if c.vec != nil {
				t.Error("vec header not cleared after write")
			}

			env := &envelope{Type: msgAck, Seq: 7, Ack: &ackMsg{OK: true}}
			enc, err := encodeEnvelope(nil, env)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.write(env, time.Second); err != nil {
				t.Fatal(err)
			}
			if len(capture.batches) != 2 || fmt.Sprint(capture.batches[1]) != fmt.Sprint([]int{len(enc)}) {
				t.Fatalf("codec.write took writes %v after the batch, want one of %d bytes", capture.batches[1:], len(enc))
			}
			if !bytes.Equal(capture.data.Bytes()[want.Len():], enc) {
				t.Fatal("codec.write output differs from the encoded envelope")
			}
		})
	}
}

// drainFixture admits one welcomed client over conn with an inline writer
// and a write deadline of timeout, and queues n retained frames; the caller
// drains and asserts.
func drainFixture(t *testing.T, conn net.Conn, n int, timeout time.Duration) (*Session, *ClientHandle, []*FrameBuf) {
	t.Helper()
	s := NewSession(SessionConfig{
		Name: "egress", SampleQueue: 64, ControlTimeout: timeout,
		Writer: &inlineWriter{batch: 64},
	})
	t.Cleanup(s.Close)
	cc, err := s.admit(&attachMsg{Name: "victim"}, newCodec(conn))
	if err != nil {
		t.Fatal(err)
	}
	cc.welcomed.Store(true)
	frames := make([]*FrameBuf, n)
	for i := range frames {
		payload := bytes.Repeat([]byte{byte('A' + i)}, 256+i*512)
		frames[i] = NewFrame(payload) // test holds its own reference
		cc.out.push(frames[i])        // ring retains a second one
	}
	return s, cc.handle, frames
}

// TestDrainBatchShortWrite: a conn that accepts part of the batch and then
// errors must leave the client marked gone with every queued frame
// reference released (under framedebug, a leaked iovec alias of a released
// pooled frame would trip the poison instead).
func TestDrainBatchShortWrite(t *testing.T) {
	_, h, frames := drainFixture(t, &shortWriteConn{limit: 700}, 4, time.Second)
	wrote, more, err := h.drainBatch(16)
	if err == nil {
		t.Fatal("want short-write error from drainBatch")
	}
	if wrote != 0 || more {
		t.Fatalf("failed drain reported wrote=%d more=%v, want 0,false", wrote, more)
	}
	select {
	case <-h.cc.gone:
	default:
		t.Fatal("client not marked gone after short write")
	}
	for i, fb := range frames {
		if got := fb.Refs(); got != 1 {
			t.Errorf("frame %d: %d refs after failed drain, want 1 (test's own)", i, got)
		}
		fb.Release()
	}
	if err := h.cc.codec.conn.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainBatchDeadlineExpiry: a conn stalling mid-vectored-write until
// the write deadline fires must produce the same clean death.
func TestDrainBatchDeadlineExpiry(t *testing.T) {
	_, h, frames := drainFixture(t, newStallConn(), 3, 30*time.Millisecond)
	_, _, err := h.drainBatch(16)
	if err == nil {
		t.Fatal("want deadline error from drainBatch")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	select {
	case <-h.cc.gone:
	default:
		t.Fatal("client not marked gone after deadline expiry")
	}
	for i, fb := range frames {
		if got := fb.Refs(); got != 1 {
			t.Errorf("frame %d: %d refs after stalled drain, want 1", i, got)
		}
		fb.Release()
	}
}

// TestDrainBatchScratchScrubbed: after a drain — success or failure — the
// handle's reusable scratch must hold no *FrameBuf (and no frame bytes)
// across its full backing capacity, so released pool buffers are never
// pinned reachable between drains.
func TestDrainBatchScratchScrubbed(t *testing.T) {
	_, h, frames := drainFixture(t, vecDiscardConn{}, 6, time.Second)
	if _, _, err := h.drainBatch(16); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 || len(h.bufs) != 0 {
		t.Fatalf("scratch lengths after drain: frames=%d bufs=%d, want 0,0", len(h.frames), len(h.bufs))
	}
	full := h.frames[:cap(h.frames)]
	for i, fb := range full {
		if fb != nil {
			t.Errorf("frames scratch slot %d pins %p past the drain", i, fb)
		}
	}
	fullBufs := h.bufs[:cap(h.bufs)]
	for i, b := range fullBufs {
		if b != nil {
			t.Errorf("bufs scratch slot %d pins frame bytes past the drain", i)
		}
	}
	for _, fb := range frames {
		if got := fb.Refs(); got != 1 {
			t.Errorf("frame refs = %d after drain, want 1", got)
		}
		fb.Release()
	}
}

// TestEgressCrossConnMatrix runs the identical broadcast storm over
// loopback TCP, net.Pipe and a capability-hiding wrapper around TCP, and
// asserts (a) the capability probe routes each conn to the right shape —
// writev for TCP, one gathered Write for the other two — and (b) the
// delivered byte stream is identical across all three, so the hybrid
// coalesce/zero-copy split can never reorder or corrupt frames.
func TestEgressCrossConnMatrix(t *testing.T) {
	const samples = 16

	// received counts the welcomes and samples complete in a stream prefix.
	received := func(stream []byte) (welcomes, sampleFrames int) {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		var sc envScratch
		for {
			e, err := decodeEnvelope(dec, clientEnvelopeBudget, &sc)
			if err != nil {
				return welcomes, sampleFrames
			}
			switch e.Type {
			case msgWelcome:
				welcomes++
			case msgSample:
				sampleFrames++
			}
		}
	}

	run := func(t *testing.T, serverConn, clientConn net.Conn, wantVectored bool) []byte {
		s := NewSession(SessionConfig{Name: "matrix", SampleQueue: 64})
		defer s.Close()
		go s.ServeConn(serverConn)

		attach, err := encodeEnvelope(nil, &envelope{Type: msgAttach, Seq: 1, Attach: &attachMsg{Name: "mx"}})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got bytes.Buffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 32<<10)
			for {
				n, err := clientConn.Read(buf)
				mu.Lock()
				got.Write(buf[:n])
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
		if _, err := clientConn.Write(attach); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "client admitted", func() bool { return s.ClientCount() == 1 })

		st := s.Steered()
		small := NewSample(1)
		small.Channels["tick"] = Scalar(0.5)
		big := NewSample(2)
		big.Channels["field"] = Channel{Dims: [3]int{512, 1, 1}, Data: make([]float64, 512)}
		for i := 0; i < samples; i++ {
			if i%4 == 3 {
				st.Emit(big) // > coalesce threshold: its own zero-copy iovec
			} else {
				st.Emit(small) // tiny: gathered into the shared iovec
			}
		}
		// The stream is complete once the client holds the welcome and
		// every sample; only then may Close cut it.
		waitFor(t, "welcome and every sample received", func() bool {
			mu.Lock()
			stream := append([]byte(nil), got.Bytes()...)
			mu.Unlock()
			w, n := received(stream)
			return w == 1 && n == samples
		})
		// A batch is counted after its write returns, so wait for one.
		waitFor(t, "a batch counted", func() bool {
			st := s.Stats()
			return st.EgressBatchesVectored+st.EgressBatchesBuffered > 0
		})
		stats := s.Stats()
		if wantVectored && stats.EgressBatchesBuffered != 0 {
			t.Errorf("vectored conn took the gather path: vectored=%d buffered=%d",
				stats.EgressBatchesVectored, stats.EgressBatchesBuffered)
		}
		if !wantVectored && stats.EgressBatchesVectored != 0 {
			t.Errorf("non-vectored conn hit the writev path: vectored=%d buffered=%d",
				stats.EgressBatchesVectored, stats.EgressBatchesBuffered)
		}
		s.Close()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatal("client stream did not close after session close")
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), got.Bytes()...)
	}

	tcpPair := func(t *testing.T) (net.Conn, net.Conn) {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		type res struct {
			c   net.Conn
			err error
		}
		ch := make(chan res, 1)
		go func() {
			c, err := l.Accept()
			ch <- res{c, err}
		}()
		client, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.c, client
	}

	var streams = map[string][]byte{}
	t.Run("tcp", func(t *testing.T) {
		server, client := tcpPair(t)
		streams["tcp"] = run(t, server, client, true)
	})
	t.Run("pipe", func(t *testing.T) {
		server, client := net.Pipe()
		streams["pipe"] = run(t, server, client, false)
	})
	t.Run("opaque", func(t *testing.T) {
		server, client := tcpPair(t)
		streams["opaque"] = run(t, opaqueConn{server}, client, false)
	})

	ref := streams["tcp"]
	if len(ref) == 0 {
		t.Fatal("tcp transport recorded no bytes")
	}
	for name, b := range streams {
		if !bytes.Equal(b, ref) {
			t.Errorf("%s stream differs from tcp stream: %d vs %d bytes", name, len(b), len(ref))
		}
	}
}

// TestEgressWritevAllocFree pins both hybrid branches to zero steady-state
// allocations: a batch of coalesced small frames and a batch of zero-copy
// large frames (plus a mixed one) must reuse the codec's iovec and gather
// scratch entirely.
func TestEgressWritevAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode instrumentation allocates; zero-alloc holds only without -race")
	}
	c := newCodec(vecDiscardConn{})
	small := make([][]byte, 16)
	for i := range small {
		small[i] = make([]byte, 256)
	}
	large := make([][]byte, 8)
	for i := range large {
		large[i] = make([]byte, 64<<10)
	}
	mixed := append(append([][]byte{}, small[:8]...), large[:4]...)
	for _, batch := range [][][]byte{small, large, mixed} {
		batch := batch
		for i := 0; i < 8; i++ { // warm the scratches
			if err := c.writeBatch(batch, 0); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			if err := c.writeBatch(batch, 0); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0.05 {
			t.Fatalf("vectored writeBatch allocates %.3f allocs/op, want 0", avg)
		}
	}
}
