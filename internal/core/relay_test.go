// Observer-tier flush policy (relay.go, DESIGN.md §4.3): ObserverInterval
// is a leading-edge rate limit, a steer pushes its first sample and blob
// through it, and the relay workers own observer wakeups for parameter
// updates.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	// ready, if set before the wakeups it should see, runs on the waker's
	// goroutine ahead of each drain.
	ready func(h *ClientHandle)
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
	if w.ready != nil {
		w.ready(h)
	}
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

// count returns the wakeups of name recorded since the last take.
func (w *recordingWriter) count(name string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.woken[name]
}

// flushed reports whether name was woken at least once and every wakeup
// has finished draining.
func (w *recordingWriter) flushed(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.woken[name] > 0 && w.active[name] == 0
}

// admitWelcomed admits one in-process client per attach message on a
// discard conn, marked welcomed, and returns them in order.
func admitWelcomed(t *testing.T, s *Session, msgs ...*attachMsg) []*clientConn {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ccs := make([]*clientConn, len(msgs))
	for i, a := range msgs {
		cc, err := s.admitLocked(a, newCodec(discardConn{}))
		if err != nil {
			t.Fatal(err)
		}
		cc.welcomed.Store(true)
		ccs[i] = cc
	}
	s.rebuildClientsLocked()
	return ccs
}

// TestSteerWakesSteeringTierOnly: applying a steer wakes the steering
// tier's writers from Poll and leaves the observers' — subscribe-all and
// channel-only alike — to the relay, which wakes each once for the
// parameter update within the control bound, and again when the steer's
// sample arrives.
func TestSteerWakesSteeringTierOnly(t *testing.T) {
	rec := newRecordingWriter()
	s := NewSession(SessionConfig{Name: "wakeups", Writer: rec, ObserverInterval: time.Hour})
	defer s.Close()
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	admitWelcomed(t, s,
		&attachMsg{Name: "steer-0"}, &attachMsg{Name: "steer-1"},
		&attachMsg{Name: "obs-2", Tier: TierObserver},
		&attachMsg{Name: "obs-3", Tier: TierObserver},
		&attachMsg{Name: "obs-4", Tier: TierObserver, Subs: []Subscription{ChannelSub("phi")}})
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
	if got := rec.take(); len(got) != 3 || got["obs-2"] != 1 || got["obs-3"] != 1 || got["obs-4"] != 1 {
		t.Fatalf("wakeups for the parameter update = %v, want every observer once", got)
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

// within polls cond until it holds and returns how long after start it
// did, failing once more than d has passed.
func within(t *testing.T, start time.Time, d time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	for !cond() {
		if time.Since(start) > d {
			t.Fatalf("%s: not within %v", what, d)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start)
}

// watchAndParamOnly registers alpha and admits, in this order, an observer
// named params that holds only parameter updates and one named watch that
// watches channel phi, on a single relay worker with an interval no test
// outlives. It returns the watcher.
func watchAndParamOnly(t *testing.T, rec *recordingWriter) (s *Session, st *Steered, watch *clientConn) {
	t.Helper()
	s = NewSession(SessionConfig{Name: "flush", Writer: rec, ObserverInterval: time.Hour, FanoutWorkers: 1})
	t.Cleanup(s.Close)
	st = s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	ccs := admitWelcomed(t, s,
		&attachMsg{Name: "params", Tier: TierObserver, Subs: []Subscription{ChannelSub("never-emitted")}},
		&attachMsg{Name: "watch", Tier: TierObserver, Subs: []Subscription{ChannelSub("phi")}})
	return s, st, ccs[1]
}

// TestSteerPushSkipsParamOnlyObservers: the steer's push flush wakes the
// observer watching the pushed channel and not the one that holds only the
// parameter update, which the control bound wakes exactly once. The
// parameter-only observer sits first in the snapshot, so a flush that woke
// both would reach it while the watcher still held the pushed sample.
func TestSteerPushSkipsParamOnlyObservers(t *testing.T) {
	rec := newRecordingWriter()
	s, st, watch := watchAndParamOnly(t, rec)
	var withSample atomic.Int32 // parameter-only wakeups while the push was queued
	rec.ready = func(h *ClientHandle) {
		if h.Name() == "params" && watch.out.length() > 0 {
			withSample.Add(1)
		}
	}

	// Spend the leading edge, so only the push can release the sample.
	st.Emit(chanSample(1, "phi"))
	waitFor(t, "the leading-edge flush", func() bool { return rec.count("watch") == 1 })
	rec.take()

	start := time.Now()
	steerAndPoll(t, s, st, "alpha", 7)
	st.Emit(chanSample(2, "phi"))
	took := within(t, start, 50*time.Millisecond, "the parameter-only observer's wakeup",
		func() bool { return rec.count("params") > 0 })
	waitFor(t, "the push to wake the watcher", func() bool { return rec.count("watch") > 0 })
	time.Sleep(20 * time.Millisecond)
	if n := withSample.Load(); n != 0 {
		t.Fatalf("the push woke the parameter-only observer (%d wakeups with the pushed sample queued)", n)
	}
	if got := rec.take(); got["params"] != 1 {
		t.Fatalf("parameter-only observer woken %d times after one steer, want once", got["params"])
	}
	t.Logf("live: parameter-only observer woken %v after the steer", took)
}

// TestObserverNotifySampleHoldersFirst: when a push and the control bound
// fall due in the same pass, the observer holding the pushed sample is woken
// before the parameter-only one that sits ahead of it in the snapshot.
func TestObserverNotifySampleHoldersFirst(t *testing.T) {
	rec := newRecordingWriter()
	s, _, watch := watchAndParamOnly(t, rec)
	params := s.snap.Load().observers()[0]
	var order []string // appended on this goroutine, the one calling notify
	rec.ready = func(h *ClientHandle) { order = append(order, h.Name()) }
	for _, q := range []*frameRing{params.ctrl, watch.ctrl, watch.out} {
		fb := NewFrame([]byte("x"))
		q.push(fb)
		fb.Release()
	}
	if !s.relay.Load().workers[0].notify(true, true) {
		t.Fatal("notify reported no sample wakeup")
	}
	if len(order) != 2 || order[0] != "watch" || order[1] != "params" {
		t.Fatalf("wakeup order = %v, want [watch params]", order)
	}
}

// TestPausedAppObserversConverge: with no sample after a steer (a paused
// application), every observer's parameter view converges within 50ms —
// the watcher's and the parameter-only observer's alike — however long
// ObserverInterval is.
func TestPausedAppObserversConverge(t *testing.T) {
	rec := newRecordingWriter()
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app", Writer: rec, ObserverInterval: time.Hour})
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	dialOpts(t, addr, AttachOptions{Name: "steer", WantMaster: true})
	params := dialOpts(t, addr, AttachOptions{
		Name: "params", Tier: TierObserver, Subscriptions: []Subscription{ChannelSub("never-emitted")},
	})
	watch := dialOpts(t, addr, AttachOptions{
		Name: "watch", Tier: TierObserver, Subscriptions: []Subscription{ChannelSub("phi")},
	})
	waitFor(t, "the post-welcome flushes", func() bool { return rec.flushed("params") && rec.flushed("watch") })
	// Spend the leading edge: only the control bound can release the update.
	st.Emit(chanSample(1, "phi"))
	nextSample(t, watch, "the leading-edge sample")

	start := time.Now()
	steerAndPoll(t, s, st, "alpha", 9)
	for _, c := range []*Client{params, watch} {
		took := within(t, start, 50*time.Millisecond, "observer "+c.Name()+" converging on alpha = 9", func() bool {
			p, _ := c.Param("alpha")
			return p.Value.Float() == 9
		})
		t.Logf("paused: observer %s converged %v after the steer", c.Name(), took)
	}
}

// TestObserverCtrlWakeDuringFrameDrain: a parameter update whose wakeup lands while
// the worker is busy with a frame flush shares the wakeup token with the
// next sample; the control flag still carries it, and the parameter-only
// observer is woken within the bound although the sample is held.
func TestObserverCtrlWakeDuringFrameDrain(t *testing.T) {
	rec := newRecordingWriter()
	s, st, _ := watchAndParamOnly(t, rec)
	entered, release := make(chan struct{}), make(chan struct{})
	blocked := false // touched only on the worker's goroutine
	rec.ready = func(h *ClientHandle) {
		if h.Name() == "watch" && !blocked {
			blocked = true
			close(entered)
			<-release
		}
	}

	// The leading-edge flush parks the worker inside the watcher's wakeup.
	st.Emit(chanSample(1, "phi"))
	<-entered
	st.Emit(chanSample(2, "phi"))      // takes the token; not pushed, so held
	steerAndPoll(t, s, st, "alpha", 5) // finds the token taken
	start := time.Now()
	close(release)
	took := within(t, start, 50*time.Millisecond, "the parameter-only observer's wakeup",
		func() bool { return rec.count("params") > 0 })
	t.Logf("parameter-only observer woken %v after the worker's frame flush returned", took)
}

// TestFlushRule drives the relay's flush rule as the pure step it is: no
// goroutine, no timer, no sleep. Each pass is one worker wakeup at an
// offset from t0; a sample flush wakes a writer unless noWriter says the
// worker found no observer with a sample queued.
func TestFlushRule(t *testing.T) {
	const (
		ms   = time.Millisecond
		none = time.Duration(-1) // no deadline
	)
	type pass struct {
		at                   time.Duration
		drained, push, ctrl  bool
		noWriter             bool
		samples, ctrlFlushed bool // the flushes the step must ask for
		due                  time.Duration
	}
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name     string
		interval time.Duration
		passes   []pass
	}{
		{"push flush restarts the window", 25 * ms, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 5 * ms, drained: true, push: true, samples: true, due: none},
			{at: 10 * ms, drained: true, due: 30 * ms},
		}},
		{"interval flush after a hold inside the window", 25 * ms, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 10 * ms, drained: true, due: 25 * ms},
			{at: 24 * ms, due: 25 * ms},
			{at: 25 * ms, samples: true, due: none},
		}},
		{"a sample flush that woke no writer keeps the window", 25 * ms, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 30 * ms, drained: true, samples: true, noWriter: true, due: none},
			{at: 35 * ms, drained: true, samples: true, due: none},
			{at: 40 * ms, drained: true, due: 60 * ms},
		}},
		{"the first control flag sets the control deadline", 25 * ms, []pass{
			{at: 0, ctrl: true, due: 1 * ms},
			{at: ms / 2, ctrl: true, due: 1 * ms},
			{at: 1 * ms, ctrlFlushed: true, due: none},
		}},
		{"a control flush keeps the window", 25 * ms, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 5 * ms, drained: true, ctrl: true, due: 6 * ms},
			{at: 6 * ms, ctrlFlushed: true, due: 25 * ms},
			{at: 25 * ms, samples: true, due: none},
		}},
		{"both flushes due in one pass", 25 * ms, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 24*ms + ms/2, drained: true, ctrl: true, due: 25 * ms},
			{at: 25*ms + ms/2, samples: true, ctrlFlushed: true, due: none},
		}},
		{"negative interval flushes every pass, control at once", -1, []pass{
			{at: 0, drained: true, samples: true, due: none},
			{at: 1, drained: true, samples: true, due: none},
			{at: 2, ctrl: true, ctrlFlushed: true, due: none},
			{at: 3, drained: true, ctrl: true, samples: true, ctrlFlushed: true, due: none},
		}},
		{"nothing held, no deadline", 25 * ms, []pass{
			{at: 0, due: none},
			{at: 0, drained: true, samples: true, due: none},
			{at: 1 * ms, due: none},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rule := flushRule{interval: tc.interval, bound: min(ctrlBound, tc.interval)}
			for i, p := range tc.passes {
				now := t0.Add(p.at)
				samples, ctrl := rule.step(now, p.drained, p.push, p.ctrl)
				if samples != p.samples || ctrl != p.ctrlFlushed {
					t.Fatalf("pass %d at %v: flush samples=%v ctrl=%v, want %v %v", i, p.at, samples, ctrl, p.samples, p.ctrlFlushed)
				}
				due := rule.done(now, samples, ctrl, samples && !p.noWriter)
				want := time.Time{}
				if p.due != none {
					want = t0.Add(p.due)
				}
				if !due.Equal(want) {
					t.Fatalf("pass %d at %v: deadline %v, want %v", i, p.at, due.Sub(t0), p.due)
				}
			}
		})
	}
}
