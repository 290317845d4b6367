// Observer-tier flush policy (relay.go, DESIGN.md §4.3): ObserverInterval
// is a leading-edge rate limit, a steer pushes its first sample and blob
// through it, and the relay workers own observer wakeups for parameter
// updates.
package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// nextSample waits up to a second for c's next sample.
func nextSample(t *testing.T, c *Client, what string) *Sample {
	t.Helper()
	select {
	case s := <-c.Samples():
		return s
	case <-time.After(time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// nextBlob waits up to a second for c's next blob.
func nextBlob(t *testing.T, c *Client, what string) *Blob {
	t.Helper()
	select {
	case b := <-c.Blobs():
		return b
	case <-time.After(time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// expectHeld fails if c receives a sample or blob within 50ms.
func expectHeld(t *testing.T, c *Client, what string) {
	t.Helper()
	select {
	case s := <-c.Samples():
		t.Fatalf("%s: sample %d was not held for the interval", what, s.Step)
	case b := <-c.Blobs():
		t.Fatalf("%s: blob %d was not held for the interval", what, b.Seq)
	case <-time.After(50 * time.Millisecond):
	}
}

// steerAndPoll queues a steer the way an in-process grid service does and
// applies it on the caller's (the simulation's) goroutine.
func steerAndPoll(t *testing.T, s *Session, st *Steered, name string, v float64) {
	t.Helper()
	if err := s.QueueSetParam(name, v); err != nil {
		t.Fatal(err)
	}
	st.Poll()
}

// TestObserverPushThrough pins the three parts of the flush policy with an
// interval no test outlives: the first frame leaves on the leading edge,
// later frames are held, and a steer pushes exactly one sample and one
// blob — with everything held before them, in order — through the hold.
//
// The session drains inline (recordingWriter): a pool writer still
// finishing the previous flush would take the next frame along, and the
// holds asserted here would race with it.
func TestObserverPushThrough(t *testing.T) {
	rec := newRecordingWriter()
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app", Writer: rec, ObserverInterval: time.Hour})
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	dialOpts(t, addr, AttachOptions{Name: "steer", WantMaster: true})
	obs := dialOpts(t, addr, AttachOptions{
		Name: "obs", Tier: TierObserver,
		Subscriptions: []Subscription{ChannelSub("phi"), ChannelSub("wall")},
	})
	blob := func(seq uint64) *Blob { return &Blob{Stream: "wall", Seq: seq, Data: make([]byte, 1024)} }
	// The serve goroutine flushes what queued up behind the welcome; let it
	// finish, or it could take the first sample from under the worker.
	waitFor(t, "the observer's post-welcome flush", func() bool { return rec.flushed("obs") })

	st.Emit(chanSample(1, "phi"))
	if got := nextSample(t, obs, "the leading-edge flush").Step; got != 1 {
		t.Fatalf("leading edge delivered step %d, want 1", got)
	}
	st.Emit(chanSample(2, "phi"))
	expectHeld(t, obs, "unsteered sample inside the window")

	steerAndPoll(t, s, st, "alpha", 3)
	st.Emit(chanSample(3, "phi"))
	for want := int64(2); want <= 3; want++ {
		if got := nextSample(t, obs, "the held and the pushed sample").Step; got != want {
			t.Fatalf("push delivered step %d, want %d", got, want)
		}
	}
	// The parameter update was queued before the pushed sample and control
	// drains first, so the steered value is already visible.
	if p, _ := obs.Param("alpha"); p.Value.Float() != 3 {
		t.Fatalf("observer's alpha = %v after the pushed sample, want 3", p.Value.Float())
	}
	// The same steer also pushes the first blob after it — and no more.
	st.EmitBlob(blob(1))
	if got := nextBlob(t, obs, "the pushed blob").Seq; got != 1 {
		t.Fatalf("push delivered blob %d, want 1", got)
	}
	st.Emit(chanSample(4, "phi"))
	st.EmitBlob(blob(2))
	expectHeld(t, obs, "second sample and blob after one steer")
	if got := s.Stats().RelayPushed; got != 2 {
		t.Fatalf("RelayPushed = %d after one steer (sample + blob), want 2", got)
	}

	steerAndPoll(t, s, st, "alpha", 4)
	st.EmitBlob(blob(3))
	if got := nextSample(t, obs, "the held sample behind the pushed blob").Step; got != 4 {
		t.Fatalf("push delivered step %d, want 4", got)
	}
	for want := uint64(2); want <= 3; want++ {
		if got := nextBlob(t, obs, "the held and the pushed blob").Seq; got != want {
			t.Fatalf("push delivered blob %d, want %d", got, want)
		}
	}
}

// TestObserverWithoutSampleInterestConverges: a parameter update's wakeup
// toward an observer is deferred to the relay worker, whose notify must see
// the control queue — this observer never has a sample queued. The second
// steer lands inside the window the first one's flush opened, so it rides
// the timer.
func TestObserverWithoutSampleInterestConverges(t *testing.T) {
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app", ObserverInterval: 100 * time.Millisecond})
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	dialOpts(t, addr, AttachOptions{Name: "steer", WantMaster: true})
	idle := dialOpts(t, addr, AttachOptions{
		Name: "idle", Tier: TierObserver,
		Subscriptions: []Subscription{ChannelSub("never-emitted")},
	})
	for _, v := range []float64{1, 2} {
		steerAndPoll(t, s, st, "alpha", v)
		waitFor(t, fmt.Sprintf("idle observer to converge on alpha = %v", v), func() bool {
			p, _ := idle.Param("alpha")
			return p.Value.Float() == v
		})
	}
}

// recordingWriter is an inlineWriter that notes who was woken. It drains on
// the waker's goroutine, so under it no writer runs concurrently with the
// relay worker that owns an observer: what a test sees leave is exactly what
// a wakeup released.
type recordingWriter struct {
	inlineWriter
	mu     sync.Mutex
	woken  map[string]int
	active map[string]int // ClientReady calls still draining
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{
		inlineWriter: inlineWriter{batch: 64},
		woken:        map[string]int{}, active: map[string]int{},
	}
}

func (w *recordingWriter) ClientReady(h *ClientHandle) {
	w.mu.Lock()
	w.woken[h.Name()]++
	w.active[h.Name()]++
	w.mu.Unlock()
	w.inlineWriter.ClientReady(h)
	w.mu.Lock()
	w.active[h.Name()]--
	w.mu.Unlock()
}

// take returns the wakeups recorded since the last take.
func (w *recordingWriter) take() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	got := w.woken
	w.woken = map[string]int{}
	return got
}

// flushed reports whether name was woken at least once and every wakeup
// has finished draining.
func (w *recordingWriter) flushed(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.woken[name] > 0 && w.active[name] == 0
}

// TestSteerWakesSteeringTierOnly: applying a steer wakes the steering
// tier's writers from Poll and leaves the observers' — subscribe-all and
// channel-only alike — to the relay, which wakes them when the steer's
// sample arrives.
func TestSteerWakesSteeringTierOnly(t *testing.T) {
	rec := newRecordingWriter()
	s := NewSession(SessionConfig{Name: "wakeups", Writer: rec, ObserverInterval: time.Hour})
	defer s.Close()
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for i := 0; i < 5; i++ {
		a := &attachMsg{Name: fmt.Sprintf("steer-%d", i)}
		if i >= 2 {
			a = &attachMsg{Name: fmt.Sprintf("obs-%d", i), Tier: TierObserver}
			if i == 4 {
				a.Subs = []Subscription{ChannelSub("phi")}
			}
		}
		cc, err := s.admitLocked(a, newCodec(discardConn{}))
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		cc.welcomed.Store(true)
	}
	s.rebuildClientsLocked()
	s.mu.Unlock()
	observersWoken := func(got map[string]int) int {
		return got["obs-2"] + got["obs-3"] + got["obs-4"]
	}

	// Spend the leading edge, so the steer below falls inside the window.
	st.Emit(chanSample(1, "phi"))
	waitFor(t, "leading-edge wakeups", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return observersWoken(rec.woken) == 3
	})
	rec.take()

	steerAndPoll(t, s, st, "alpha", 7)
	got := rec.take()
	if got["steer-0"] != 1 || got["steer-1"] != 1 || observersWoken(got) != 0 {
		t.Fatalf("wakeups during Poll = %v, want exactly the two steering-tier clients", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("wakeups with the parameter update held = %v, want none", got)
	}

	st.Emit(chanSample(2, "phi"))
	waitFor(t, "the push to wake every observer", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return observersWoken(rec.woken) == 3
	})
	if got := rec.take(); got["obs-2"] != 1 || got["obs-3"] != 1 || got["obs-4"] != 1 {
		t.Fatalf("wakeups for the pushed sample = %v, want every observer once", got)
	}
	waitFor(t, "the push flush to be counted", func() bool { return s.Stats().RelayPushed > 0 })
}
