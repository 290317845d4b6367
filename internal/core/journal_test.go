package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// memSink is an in-memory JournalSink standing in for internal/journal in
// core's own tests (the durable implementation cannot be imported here
// without a cycle; its integration tests live beside it).
type memSink struct {
	mu   sync.Mutex
	recs []struct {
		class JournalClass
		frame []byte
	}
}

func (m *memSink) Record(class JournalClass, frame *FrameBuf) {
	// The caller's buffer reference is live only for the call, so the sink
	// copies, as the durable implementation does.
	m.mu.Lock()
	m.recs = append(m.recs, struct {
		class JournalClass
		frame []byte
	}{class, append([]byte(nil), frame.Bytes()...)})
	m.mu.Unlock()
}

func (m *memSink) Replay(visit func(class JournalClass, frame []byte) bool) {
	m.mu.Lock()
	recs := m.recs
	m.mu.Unlock()
	for _, r := range recs {
		if !visit(r.class, r.frame) {
			return
		}
	}
}

func (m *memSink) classes() []JournalClass {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JournalClass, len(m.recs))
	for i, r := range m.recs {
		out[i] = r.class
	}
	return out
}

// TestLateJoinerConvergence is the acceptance property of the journal
// layer: a client attaching after N broadcasts observes the same final
// parameter and event state as one attached from the start.
func TestLateJoinerConvergence(t *testing.T) {
	sink := &memSink{}
	s, dial := testSession(t, SessionConfig{Journal: sink})
	st := s.Steered()
	if err := st.RegisterFloat("g", 0, 0, 10, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}

	early := dial(AttachOptions{Name: "early"})
	if err := early.SetParamContext(testCtx(t), "g", 4.5); err != nil {
		t.Fatal(err)
	}
	st.Poll() // apply + broadcast the param update
	for i := 0; i < 5; i++ {
		st.Event(fmt.Sprintf("step %d reached", i))
	}
	for step := int64(1); step <= 3; step++ {
		sample := NewSample(step)
		sample.Channels["seg"] = Scalar(float64(step) / 10)
		st.Emit(sample)
	}
	waitFor(t, "early client history", func() bool {
		p, _ := early.Param("g")
		return len(early.Events()) == 5 && p.Value == FloatValue(4.5)
	})

	late := dial(AttachOptions{Name: "late"})
	waitFor(t, "late joiner event convergence", func() bool {
		return reflect.DeepEqual(late.Events(), early.Events())
	})
	if p, ok := late.Param("g"); !ok || p.Value != FloatValue(4.5) {
		t.Fatalf("late joiner param state: %+v", p)
	}
	// The replayed sample history ends at the freshest emission.
	var lastStep int64
	deadline := time.Now().Add(2 * time.Second)
	for lastStep != 3 && time.Now().Before(deadline) {
		select {
		case got := <-late.Samples():
			lastStep = got.Step
		case <-time.After(50 * time.Millisecond):
		}
	}
	if lastStep != 3 {
		t.Fatalf("late joiner's freshest replayed sample = step %d, want 3", lastStep)
	}

	// Exactly-once: live traffic after the catch-up must not duplicate
	// replayed history.
	st.Event("after late attach")
	waitFor(t, "post-attach event", func() bool { return len(late.Events()) >= 6 })
	time.Sleep(20 * time.Millisecond)
	if !reflect.DeepEqual(late.Events(), early.Events()) {
		t.Fatalf("histories diverged:\nearly: %q\nlate:  %q", early.Events(), late.Events())
	}
	if len(late.Events()) != 6 {
		t.Fatalf("replay duplicated events: %q", late.Events())
	}
}

// TestLateJoinerExactlyOnceUnderBroadcastRace hammers the attach barrier:
// clients attach while events stream, and every client must end with the
// full, duplicate-free history.
func TestLateJoinerExactlyOnceUnderBroadcastRace(t *testing.T) {
	sink := &memSink{}
	s, dial := testSession(t, SessionConfig{Journal: sink})
	st := s.Steered()

	const total = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			st.Event(fmt.Sprintf("ev-%03d", i))
		}
	}()
	var clients []*Client
	for i := 0; i < 6; i++ {
		clients = append(clients, dial(AttachOptions{Name: fmt.Sprintf("c%d", i)}))
		time.Sleep(time.Millisecond)
	}
	<-done

	for i, c := range clients {
		c := c
		waitFor(t, fmt.Sprintf("client %d full history", i), func() bool {
			return len(c.Events()) == total
		})
		evs := c.Events()
		for k, ev := range evs {
			if want := fmt.Sprintf("ev-%03d", k); ev != want {
				t.Fatalf("client %d event %d = %q, want %q (duplicate or loss)", i, k, ev, want)
			}
		}
	}
}

func TestJournalRecordsBroadcastClasses(t *testing.T) {
	sink := &memSink{}
	s, dial := testSession(t, SessionConfig{Journal: sink})
	st := s.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})

	m := dial(AttachOptions{Name: "m"})
	if err := m.SetParamContext(testCtx(t), "g", 2); err != nil {
		t.Fatal(err)
	}
	st.Poll()
	st.Event("hello")
	sample := NewSample(1)
	sample.Channels["x"] = Scalar(1)
	st.Emit(sample)
	if err := m.SetViewContext(testCtx(t), ViewState{Eye: [3]float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "journal records", func() bool { return len(sink.classes()) == 4 })
	want := []JournalClass{JournalState, JournalEvent, JournalSample, JournalState}
	if got := sink.classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal classes = %v, want %v", got, want)
	}
}

func TestRecoverRestoresState(t *testing.T) {
	sink := &memSink{}
	// A previous run's log: param updates (one later superseding an
	// earlier), a view update, an event and two samples.
	mk := func(e *envelope) []byte {
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sink.Record(JournalState, NewFrame(mk(&envelope{Type: msgParamUpdate, Params: []Param{
		{Name: "g", Type: FloatParam, Value: FloatValue(1.5), Min: 0, Max: 10},
	}})))
	sink.Record(JournalState, NewFrame(mk(&envelope{Type: msgParamUpdate, Params: []Param{
		{Name: "g", Type: FloatParam, Value: FloatValue(4.5), Min: 0, Max: 10},
		{Name: "gone-param", Type: FloatParam, Value: FloatValue(1), Min: 0, Max: 10},
	}})))
	sink.Record(JournalEvent, NewFrame(mk(&envelope{Type: msgEvent, Event: "old news"})))
	view := &ViewState{Seq: 7, Eye: [3]float64{9, 8, 7}, VizParams: map[string]float64{"iso": 0.5}}
	sink.Record(JournalState, NewFrame(mk(&envelope{Type: msgViewUpdate, View: view})))
	s1 := NewSample(41)
	s1.Channels["seg"] = Scalar(0.1)
	sink.Record(JournalSample, NewFrame(mk(&envelope{Type: msgSample, Sample: s1})))
	s2 := NewSample(42)
	s2.Channels["seg"] = Scalar(0.2)
	sink.Record(JournalSample, NewFrame(mk(&envelope{Type: msgSample, Sample: s2})))

	s := NewSession(SessionConfig{Journal: sink})
	defer s.Close()
	st := s.Steered()
	var applied float64
	if err := st.RegisterFloat("g", 0, 0, 10, "", func(v float64) { applied = v }); err != nil {
		t.Fatal(err)
	}

	n, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // 2 param frames + view + 2 samples ("gone-param" skipped, event ignored)
		t.Fatalf("Recover applied %d frames, want 5", n)
	}
	if applied != 4.5 {
		t.Fatalf("apply callback saw %v, want 4.5", applied)
	}
	params := s.Params()
	if len(params) != 1 || params[0].Value != FloatValue(4.5) {
		t.Fatalf("recovered params: %+v", params)
	}
	if v := s.View(); v.Seq != 7 || v.Eye != [3]float64{9, 8, 7} || v.VizParams["iso"] != 0.5 {
		t.Fatalf("recovered view: %+v", v)
	}
	if ls := s.LastSample(); ls == nil || ls.Step != 42 {
		t.Fatalf("recovered last sample: %+v", ls)
	}
}

// TestRecoverMutesJournalTap: an apply callback that broadcasts (an event
// echoing the parameter change) must not grow the journal on every
// restart — Recover suppresses recording for its duration.
func TestRecoverMutesJournalTap(t *testing.T) {
	sink := &memSink{}
	buf, err := encodeEnvelope(nil, &envelope{Type: msgParamUpdate, Params: []Param{
		{Name: "label", Type: StringParam, Value: StringValue("v1")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sink.Record(JournalState, NewFrame(buf))

	s := NewSession(SessionConfig{Journal: sink})
	defer s.Close()
	st := s.Steered()
	if err := st.RegisterString("label", "", "", func(v string) { st.Event("label: " + v) }); err != nil {
		t.Fatal(err)
	}
	countEvents := func() int {
		n := 0
		for _, c := range sink.classes() {
			if c == JournalEvent {
				n++
			}
		}
		return n
	}
	before := countEvents()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	// Recover broadcasts (and journals) the recovered state so attached
	// clients converge — but the callback's event echo must not have been
	// recorded.
	if after := countEvents(); after != before {
		t.Fatalf("recovery re-journaled callback echoes: %d -> %d events", before, after)
	}
	// After recovery the tap is live again.
	st.Event("post-recovery")
	waitFor(t, "live event journaled", func() bool { return countEvents() == before+1 })
}

// TestRecoverBroadcastsToAttachedClients: a client that attached before
// Recover ran (a hub's listener stays live while a revived session
// recovers) must converge on the recovered state.
func TestRecoverBroadcastsToAttachedClients(t *testing.T) {
	sink := &memSink{}
	buf, err := encodeEnvelope(nil, &envelope{Type: msgParamUpdate, Params: []Param{
		{Name: "g", Type: FloatParam, Value: FloatValue(4.5), Min: 0, Max: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sink.Record(JournalState, NewFrame(buf))

	s, dial := testSession(t, SessionConfig{Journal: sink})
	st := s.Steered()
	if err := st.RegisterFloat("g", 0, 0, 10, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	c := dial(AttachOptions{Name: "early"}) // welcome carries the default g=0
	if p, _ := c.Param("g"); p.Value != FloatValue(0) {
		t.Fatalf("pre-recovery param: %+v", p)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovered state broadcast", func() bool {
		p, _ := c.Param("g")
		return p.Value == FloatValue(4.5)
	})
}

func TestRecoverWithoutJournalIsNoop(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	if n, err := s.Recover(); n != 0 || err != nil {
		t.Fatalf("Recover on journal-less session: %d, %v", n, err)
	}
}

func TestSnapshotFramesRoundTrip(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st := s.Steered()
	st.RegisterFloat("g", 3.5, 0, 10, "coupling", func(float64) {})
	st.RegisterChoice("mode", []string{"fast", "slow"}, "slow", "", func(string) {})
	s.SetViewServer(ViewState{Eye: [3]float64{1, 2, 3}, VizParams: map[string]float64{"iso": 0.25}})

	frames := s.SnapshotFrames()
	if len(frames) != 2 {
		t.Fatalf("SnapshotFrames: %d frames, want params + view", len(frames))
	}

	// The frames must replay into a fresh session via the normal Recover
	// path and reproduce the state.
	sink := &memSink{}
	for _, f := range frames {
		sink.Record(JournalState, NewFrame(f))
	}
	s2 := NewSession(SessionConfig{Journal: sink})
	defer s2.Close()
	st2 := s2.Steered()
	st2.RegisterFloat("g", 0, 0, 10, "coupling", func(float64) {})
	st2.RegisterChoice("mode", []string{"fast", "slow"}, "fast", "", func(string) {})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if p, _ := paramByName(s2.Params(), "g"); p.Value != FloatValue(3.5) {
		t.Fatalf("snapshot param g: %+v", p)
	}
	if p, _ := paramByName(s2.Params(), "mode"); p.Value != StringValue("slow") {
		t.Fatalf("snapshot param mode: %+v", p)
	}
	if v := s2.View(); v.Eye != [3]float64{1, 2, 3} || v.VizParams["iso"] != 0.25 {
		t.Fatalf("snapshot view: %+v", v)
	}
}

func paramByName(params []Param, name string) (Param, bool) {
	for _, p := range params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}
