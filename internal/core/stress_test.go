package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestBroadcastStressAttachDetach is the -race guard for the zero-copy
// broadcast path's lifetime rules: 8 writer goroutines (4 emitting samples,
// 4 broadcasting events) hammer a session over real TCP while clients
// attach and detach and one client deliberately stalls (attaches, then
// never reads). The assertions are the two policies the ring buffers must
// carry over from the channel queues: drop-on-slow — the stalled client
// loses frames but never stalls an emitter — and freshest-wins — a live
// client's final received sample is the newest emission, not a stale
// prefix.
func TestBroadcastStressAttachDetach(t *testing.T) {
	s := NewSession(SessionConfig{
		Name: "stress", SampleQueue: 8, ControlTimeout: 500 * time.Millisecond,
	})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	st := s.Steered()

	// The stalled client: full handshake, then silence. Its server-side
	// rings fill and overwrite; its conn's send buffer eventually jams and
	// the write deadline declares it dead — either way no broadcast blocks.
	stalledConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalledConn.Close()
	sc := newCodec(stalledConn)
	if err := sc.write(&envelope{Type: msgAttach, Attach: &attachMsg{Name: "stalled"}}, time.Second); err != nil {
		t.Fatal(err)
	}
	if first, err := sc.read(); err != nil || first.Type != msgWelcome {
		t.Fatalf("stalled client handshake: %v %v", first, err)
	}

	// A durable live client that survives the whole run and must converge.
	liveConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	live, err := Attach(liveConn, AttachOptions{Name: "live", SampleBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	const writers = 8
	const perWriter = 400
	var lastStep atomic.Int64
	var stepSeq atomic.Int64
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w%2 == 0 {
					step := stepSeq.Add(1)
					sample := NewSample(step)
					sample.Channels["x"] = Scalar(float64(step))
					st.Emit(sample)
					for {
						prev := lastStep.Load()
						if step <= prev || lastStep.CompareAndSwap(prev, step) {
							break
						}
					}
				} else {
					st.Event(fmt.Sprintf("w%d-%d", w, i))
				}
			}
		}(w)
	}

	// Churn: clients attach, read a little, detach — concurrently with the
	// writers, exercising the RCU snapshot swap against in-flight fan-outs.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 40; i++ {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return
			}
			c, err := Attach(conn, AttachOptions{Name: fmt.Sprintf("churn-%d", i)})
			if err != nil {
				continue
			}
			select {
			case <-c.Samples():
			case <-time.After(2 * time.Millisecond):
			}
			c.Close()
		}
	}()

	wg.Wait()
	<-churnDone

	// Drop-on-slow: the emitters finished (no deadlock behind the stalled
	// client) and the overwrites were counted.
	stats := s.Stats()
	if stats.SamplesEmitted != uint64(writers/2*perWriter) {
		t.Fatalf("emitted %d, want %d", stats.SamplesEmitted, writers/2*perWriter)
	}
	if stats.SamplesDropped == 0 {
		t.Fatal("no drops despite a stalled client and tiny queues")
	}
	if stats.SamplesDelivered == 0 {
		t.Fatal("nothing delivered")
	}

	// Freshest-wins: emit one final sample after the storm; the live client
	// must see it even though it lost intermediate ones. The final step is
	// strictly larger than anything emitted during the storm.
	finalStep := stepSeq.Add(1)
	finalSample := NewSample(finalStep)
	finalSample.Channels["x"] = Scalar(-1)
	st.Emit(finalSample)
	waitFor(t, "live client receives the freshest sample", func() bool {
		for {
			select {
			case got := <-live.Samples():
				if got.Step == finalStep {
					return true
				}
			default:
				return false
			}
		}
	})

	// The stalled client is eventually declared gone (deadline write) or
	// still attached with drops — either is legal; what is not legal is a
	// wedged session. A fresh attach must still complete promptly.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Attach(conn, AttachOptions{Name: "post-storm", Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("session wedged after the storm: %v", err)
	}
	c.Close()
}

// TestBroadcastStressJournaled repeats a smaller storm on a journaled
// session: the attach barrier, the journal tap and the lossless control
// queue all run under -race while late joiners attach mid-storm. Every
// surviving client must converge on the full event history, duplicate-free
// (the exactly-once guarantee, with catch-up keeping the replayed frames
// themselves).
func TestBroadcastStressJournaled(t *testing.T) {
	sink := &memSink{}
	s, dial := testSession(t, SessionConfig{Journal: sink, SampleQueue: 8})
	st := s.Steered()

	const writers = 8
	const perWriter = 150
	var wg sync.WaitGroup
	wg.Add(writers)
	var eventSeq atomic.Int64
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w%2 == 0 {
					sample := NewSample(int64(i))
					sample.Channels["x"] = Scalar(float64(i))
					st.Emit(sample)
				} else {
					st.Event(fmt.Sprintf("ev-%05d", eventSeq.Add(1)))
				}
			}
		}(w)
	}

	var clients []*Client
	for i := 0; i < 5; i++ {
		clients = append(clients, dial(AttachOptions{Name: fmt.Sprintf("late-%d", i)}))
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	total := int(eventSeq.Load())
	for i, c := range clients {
		c := c
		waitFor(t, fmt.Sprintf("journaled client %d full history", i), func() bool {
			return len(c.Events()) == total
		})
		seen := make(map[string]bool, total)
		for _, ev := range c.Events() {
			if seen[ev] {
				t.Fatalf("client %d saw %q twice", i, ev)
			}
			seen[ev] = true
		}
	}
}

// holdWriter takes wakeups without draining, so a test can let a welcomed
// client's queues back up and drain them when it chooses.
type holdWriter struct{}

func (holdWriter) ClientReady(*ClientHandle) {}

// TestJournaledCtrlOverflowLossless: a live client whose writer falls
// behind a control burst loses nothing on a journaled session — the full
// ring grows instead of evicting, and the drains deliver every event once,
// in emission order. Without a journal the ring stays lossy: the same burst
// leaves only the newest ring-full.
func TestJournaledCtrlOverflowLossless(t *testing.T) {
	const burst = 200
	for _, journaled := range []bool{true, false} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			cfg := SessionConfig{Name: "overflow", Writer: holdWriter{}}
			if journaled {
				cfg.Journal = &memSink{}
			}
			s := NewSession(cfg)
			defer s.Close()
			conn := &captureConn{}
			cc, err := s.admit(&attachMsg{Name: "slow"}, newCodec(conn))
			if err != nil {
				t.Fatal(err)
			}
			cc.welcomed.Store(true)
			for i := 0; i < burst; i++ {
				s.broadcastEvent(fmt.Sprintf("ev-%03d", i))
			}
			for more := true; more; {
				if _, more, err = cc.handle.drainBatch(poolBatch); err != nil {
					t.Fatal(err)
				}
			}
			if n := cc.ctrl.length(); n != 0 {
				t.Fatalf("%d control frames still queued after the drains", n)
			}

			dec := wire.NewDecoder(bytes.NewReader(conn.data.Bytes()))
			var got []string
			for {
				e, err := decodeEnvelope(dec, clientEnvelopeBudget, new(envScratch))
				if err != nil {
					break
				}
				if e.Type == msgEvent {
					got = append(got, e.Event)
				}
			}
			first := 0
			if !journaled {
				first = burst - len(cc.ctrl.buf)
			}
			if len(got) != burst-first {
				t.Fatalf("delivered %d events, want %d", len(got), burst-first)
			}
			for i, ev := range got {
				if want := fmt.Sprintf("ev-%03d", first+i); ev != want {
					t.Fatalf("event %d = %q, want %q", i, ev, want)
				}
			}
		})
	}
}

// TestJournaledCtrlQueueBound: a journaled client whose writer never drains
// is declared gone when its control queue would exceed maxCtrlQueue frames,
// and dropping it releases every queued reference.
func TestJournaledCtrlQueueBound(t *testing.T) {
	s := NewSession(SessionConfig{Name: "bound", Writer: holdWriter{}, Journal: discardSink{}})
	defer s.Close()
	cc, err := s.admit(&attachMsg{Name: "stuck"}, newCodec(discardConn{}))
	if err != nil {
		t.Fatal(err)
	}
	cc.welcomed.Store(true)
	frames := make([]*FrameBuf, maxCtrlQueue+1)
	for i := range frames {
		fb := GetFrame(16)
		fb.AppendBytes([]byte("event"))
		frames[i] = fb
		fb.Retain() // the fan-out consumes one reference; the test keeps its own
		s.fanout(JournalEvent, fb, true)
		select {
		case <-cc.gone:
			if i < maxCtrlQueue {
				t.Fatalf("declared gone after %d queued frames, bound is %d", i+1, maxCtrlQueue)
			}
		default:
			if i == maxCtrlQueue {
				t.Fatalf("still live with %d control frames queued", i+1)
			}
		}
	}
	if n := cc.ctrl.length(); n != maxCtrlQueue {
		t.Fatalf("queued %d control frames, want %d", n, maxCtrlQueue)
	}
	s.drop(cc)
	for i, fb := range frames {
		if fb.Refs() != 1 {
			t.Fatalf("frame %d refs = %d after the drop, want 1 (the producer's)", i, fb.Refs())
		}
		fb.Release()
	}
	if _, _, err := cc.handle.drainBatch(poolBatch); err != ErrClientGone {
		t.Fatalf("drain of a dropped client = %v, want ErrClientGone", err)
	}
}

// discardSink journals nothing: it makes a session journaled (lossless
// control delivery) without keeping a history the test does not read.
type discardSink struct{}

func (discardSink) Record(JournalClass, *FrameBuf)         {}
func (discardSink) Replay(func(JournalClass, []byte) bool) {}

// capturedEvents decodes the envelopes a captureConn received and returns
// the event strings in arrival order.
func capturedEvents(t *testing.T, conn *captureConn) []string {
	t.Helper()
	dec := wire.NewDecoder(bytes.NewReader(conn.data.Bytes()))
	var got []string
	for {
		e, err := decodeEnvelope(dec, clientEnvelopeBudget, new(envScratch))
		if err != nil {
			return got
		}
		if e.Type == msgEvent {
			got = append(got, e.Event)
		}
	}
}

// TestJournaledCtrlOrderUnderConcurrentDrain: on a journaled session a live
// client receives every event exactly once and in emission order while a
// burst overflows its control queue and the writer drains concurrently.
// An ordering fault here shows only when a drain is interrupted at the
// wrong moment, so the test repeats the race for many rounds.
func TestJournaledCtrlOrderUnderConcurrentDrain(t *testing.T) {
	const rounds, events = 25, 12000
	for round := 0; round < rounds; round++ {
		s := NewSession(SessionConfig{Name: "order", Writer: holdWriter{}, Journal: discardSink{}})
		conn := &captureConn{}
		cc, err := s.admit(&attachMsg{Name: "reader"}, newCodec(conn))
		if err != nil {
			t.Fatal(err)
		}
		cc.welcomed.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < events; i++ {
				s.broadcastEvent(fmt.Sprintf("ev-%05d", i))
			}
		}()
		for emitting := true; emitting; {
			select {
			case <-done:
				emitting = false
			default:
			}
			if _, _, err := cc.handle.drainBatch(poolBatch); err != nil {
				t.Fatal(err)
			}
		}
		for more := true; more; {
			if _, more, err = cc.handle.drainBatch(poolBatch); err != nil {
				t.Fatal(err)
			}
		}
		got := capturedEvents(t, conn)
		s.Close()
		if len(got) != events {
			t.Fatalf("round %d: delivered %d events, want %d", round, len(got), events)
		}
		for i, ev := range got {
			if want := fmt.Sprintf("ev-%05d", i); ev != want {
				t.Fatalf("round %d: event %d = %q, want %q", round, i, ev, want)
			}
		}
	}
}
