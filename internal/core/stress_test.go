package core

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// session: the attach barrier, the journal tap and the pre-welcome stash
// path all run under -race while late joiners attach mid-storm. Every
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
