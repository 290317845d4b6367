// Writer pool tests (writer.go, DESIGN.md §4 "Delivery"): a pool smaller
// than its clients still drains every queue in order through the
// edge-trigger continuation, and stalled clients sharing a bare session's
// pool cost a live client at most ⌈stalled/poolWriters⌉ write deadlines.
package core

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestWriterPoolSmallBatches builds a pool with fewer writers than clients
// and a batch smaller than each client's backlog, then wakes each client
// exactly once: the whole backlog arriving, in order, proves a drain that
// leaves output queued reschedules its client (the `more` continuation)
// instead of waiting for the next broadcast.
func TestWriterPoolSmallBatches(t *testing.T) {
	const clients, backlog = 3, 20
	pool := newWriterPool(2, 8)
	defer pool.Close()
	s := NewSession(SessionConfig{Name: "small-pool", SampleQueue: 32, Writer: pool})
	defer s.Close()

	ccs := make([]*clientConn, clients)
	peers := make([]*codec, clients)
	for i := range ccs {
		srv, cli := net.Pipe()
		cc, err := s.admit(&attachMsg{Name: fmt.Sprintf("c%d", i)}, newCodec(srv))
		if err != nil {
			t.Fatal(err)
		}
		ccs[i], peers[i] = cc, newCodec(cli)
		defer cli.Close()
	}
	// Pre-welcome broadcasts only queue: the welcomed gate suppresses every
	// wakeup, so the backlog sits in the rings until the single notify below.
	st := s.Steered()
	for step := int64(0); step < backlog; step++ {
		st.Emit(chanSample(step, "x"))
	}

	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer *codec) {
			defer wg.Done()
			for want := int64(0); want < backlog; want++ {
				e, err := peer.read()
				if err != nil {
					t.Errorf("client %d: read after step %d: %v", i, want-1, err)
					return
				}
				if e.Type != msgSample || e.Sample.Step != want {
					t.Errorf("client %d: got %+v, want sample %d", i, e, want)
					return
				}
			}
		}(i, peer)
	}
	for _, cc := range ccs {
		cc.welcomed.Store(true)
		s.notifyWriter(cc)
	}
	wg.Wait()
}

// TestStalledClientsShareWriters: five clients that never read — one more
// than the pool has writers — jam their sockets on a bare session. The
// emitter never waits on them, and a live client still gets the freshest
// sample within ⌈5/4⌉ ControlTimeouts: each stalled client holds a writer
// for at most one write deadline before it is declared dead.
func TestStalledClientsShareWriters(t *testing.T) {
	const stalled = poolWriters + 1
	const timeout = 200 * time.Millisecond
	s, addr := testSessionAddr(t, SessionConfig{Name: "shared-writers", ControlTimeout: timeout})
	st := s.Steered()

	for i := 0; i < stalled; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		c := newCodec(conn)
		if err := c.write(&envelope{Type: msgAttach, Attach: &attachMsg{Name: fmt.Sprintf("stalled-%d", i)}}, time.Second); err != nil {
			t.Fatal(err)
		}
		if first, err := c.read(); err != nil || first.Type != msgWelcome {
			t.Fatalf("stalled client %d handshake: %v %v", i, first, err)
		}
	}
	live := dialOpts(t, addr, AttachOptions{Name: "live", SampleBuffer: 4})

	// jammed reports whether every stalled client has fallen behind its
	// writer (its ring overflowed) or already been declared dead.
	jammed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; i < stalled; i++ {
			if cc, ok := s.clients[fmt.Sprintf("stalled-%d", i)]; ok && cc.dropped.Load() == 0 {
				return false
			}
		}
		return true
	}
	big := NewSample(0)
	big.Channels["field"] = Channel{Dims: [3]int{8192, 1, 1}, Data: make([]float64, 8192)} // 64 KB
	emit := func(step int64) {
		big.Step = step
		start := time.Now()
		st.Emit(big)
		if d := time.Since(start); d >= timeout {
			t.Fatalf("Emit of step %d took %v: the emitter waited on a socket", step, d)
		}
	}
	step := int64(0)
	for deadline := time.Now().Add(10 * time.Second); !jammed(); step++ {
		if time.Now().After(deadline) {
			t.Fatal("stalled clients never jammed")
		}
		emit(step)
		time.Sleep(time.Millisecond)
	}

	final := step + 1
	sent := time.Now()
	emit(final)
	bound := ((stalled+poolWriters-1)/poolWriters)*timeout + 300*time.Millisecond
	for {
		select {
		case got := <-live.Samples():
			if got.Step == final {
				d := time.Since(sent)
				if d > bound {
					t.Fatalf("live client got the final sample after %v, want within %v", d, bound)
				}
				t.Logf("jammed after %d samples; final sample delivered in %v", step, d)
				return
			}
		case <-time.After(bound):
			t.Fatalf("live client did not get the final sample within %v", bound)
		}
	}
}
