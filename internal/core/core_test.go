package core

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// testCtx bounds one steering round trip so a wedged session fails the
// test instead of hanging it; the context-form calls take it where the
// retired convenience wrappers took a fixed timeout.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// testSession starts a session on a loopback TCP listener and returns it
// with a dialer.
func testSession(t *testing.T, cfg SessionConfig) (*Session, func(opts AttachOptions) *Client) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-session"
	}
	s := NewSession(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)

	dial := func(opts AttachOptions) *Client {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Attach(conn, opts)
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return s, dial
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAttachWelcome(t *testing.T) {
	s, dial := testSession(t, SessionConfig{Name: "lb3d-run", AppName: "lb3d"})
	st := s.Steered()
	var coupling float64
	if err := st.RegisterFloat("coupling", 1.5, 0, 10, "miscibility", func(v float64) { coupling = v }); err != nil {
		t.Fatal(err)
	}
	_ = coupling

	c := dial(AttachOptions{Name: "manchester"})
	if c.SessionName() != "lb3d-run" || c.AppName() != "lb3d" {
		t.Fatalf("welcome contents: %q %q", c.SessionName(), c.AppName())
	}
	if c.Role() != RoleMaster {
		t.Fatal("first client should be master")
	}
	p, ok := c.Param("coupling")
	if !ok || p.Value != FloatValue(1.5) || p.Min != 0 || p.Max != 10 {
		t.Fatalf("param not in welcome: %+v", p)
	}
	if p.Type != FloatParam {
		t.Fatalf("param type = %v", p.Type)
	}
}

func TestSecondClientIsObserver(t *testing.T) {
	_, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "master"})
	o := dial(AttachOptions{Name: "obs"})
	if m.Role() != RoleMaster {
		t.Fatal("first client lost master role")
	}
	if o.Role() != RoleObserver {
		t.Fatal("second client should observe")
	}
	if o.Master() != "master" {
		t.Fatalf("observer sees master %q", o.Master())
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	s := NewSession(SessionConfig{Name: "x"})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	conn1, _ := net.Dial("tcp", l.Addr().String())
	c1, err := Attach(conn1, AttachOptions{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	conn2, _ := net.Dial("tcp", l.Addr().String())
	if _, err := Attach(conn2, AttachOptions{Name: "alice"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestSteeringAppliedAtPoll(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	applied := make(chan float64, 1)
	st.RegisterFloat("g", 0, 0, 10, "", func(v float64) { applied <- v })

	m := dial(AttachOptions{Name: "m"})
	if err := m.SetParamContext(testCtx(t), "g", 4.5); err != nil {
		t.Fatalf("SetParam: %v", err)
	}
	// Not yet applied: the simulation has not polled.
	select {
	case v := <-applied:
		t.Fatalf("applied %v before poll", v)
	case <-time.After(20 * time.Millisecond):
	}
	if got := st.Poll(); got != ControlContinue {
		t.Fatalf("Poll = %v", got)
	}
	select {
	case v := <-applied:
		if v != 4.5 {
			t.Fatalf("applied %v", v)
		}
	default:
		t.Fatal("steer not applied at poll")
	}
	// Update broadcast reaches the client.
	waitFor(t, "param update", func() bool {
		p, _ := m.Param("g")
		return p.Value == FloatValue(4.5)
	})
	if s.Stats().SteersApplied != 1 {
		t.Fatalf("SteersApplied = %d", s.Stats().SteersApplied)
	}
}

func TestObserverCannotSteer(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})
	dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})
	err := o.SetParamContext(testCtx(t), "g", 1)
	if err == nil || !strings.Contains(err.Error(), "master") {
		t.Fatalf("observer steer err = %v", err)
	}
	if s.Stats().SteersRejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestParamValidation(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})
	m := dial(AttachOptions{Name: "m"})
	if err := m.SetParamContext(testCtx(t), "nosuch", 1); err == nil {
		t.Fatal("unknown param accepted")
	}
	if err := m.SetParamContext(testCtx(t), "g", 11); err == nil {
		t.Fatal("out-of-bounds accepted")
	}
	if err := m.SetParamContext(testCtx(t), "g", -0.1); err == nil {
		t.Fatal("below-min accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st := s.Steered()
	if err := st.RegisterFloat("a", 0, 0, 1, "", nil); err == nil {
		t.Fatal("nil apply accepted")
	}
	if err := st.RegisterFloat("a", 0, 1, 0, "", func(float64) {}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if err := st.RegisterFloat("a", 0, 0, 1, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterFloat("a", 0, 0, 1, "", func(float64) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestPauseResumeStop(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	m := dial(AttachOptions{Name: "m"})

	if err := m.PauseContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pause to take effect", func() bool { return st.Poll() == ControlPaused })

	// A paused PollBlocking with timeout returns paused, not hang.
	if got := st.PollBlocking(30 * time.Millisecond); got != ControlPaused {
		t.Fatalf("PollBlocking = %v", got)
	}

	done := make(chan Control, 1)
	go func() { done <- st.PollBlocking(0) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.ResumeContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != ControlContinue {
			t.Fatalf("after resume: %v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PollBlocking stuck after resume")
	}

	if err := m.StopContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stop", func() bool { return st.Poll() == ControlStop })
}

// TestEnqueueOpNeverBlocks: concurrent enqueuers on a full pending queue
// that nobody polls all return; a loser of the race for a freed slot evicts
// again instead of waiting for the simulation.
func TestEnqueueOpNeverBlocks(t *testing.T) {
	s := NewSession(SessionConfig{Name: "enqueue"})
	defer s.Close()
	const goroutines, ops = 16, 20000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				s.enqueueOp(pendingOp{cmd: cmdPause})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an enqueuer blocked on the full pending queue")
	}
}

func TestCheckpointRequest(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	m := dial(AttachOptions{Name: "m"})
	if st.CheckpointRequested() {
		t.Fatal("spurious checkpoint request")
	}
	if err := m.CheckpointContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "checkpoint pending", func() bool {
		st.Poll()
		return st.CheckpointRequested()
	})
	if st.CheckpointRequested() {
		t.Fatal("checkpoint request not cleared")
	}
}

func TestViewSynchronisation(t *testing.T) {
	_, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o1 := dial(AttachOptions{Name: "o1"})
	o2 := dial(AttachOptions{Name: "o2"})

	v := ViewState{Eye: [3]float64{5, 6, 7}, FovY: 1.1, VizParams: map[string]float64{"iso": 0.25}}
	if err := m.SetViewContext(testCtx(t), v); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{m, o1, o2} {
		waitFor(t, "view convergence", func() bool {
			got := c.View()
			return got.Eye == [3]float64{5, 6, 7} && got.VizParams["iso"] == 0.25
		})
	}
	// Observer may not move the shared view.
	if err := o1.SetViewContext(testCtx(t), v); err == nil {
		t.Fatal("observer moved the shared view")
	}
}

func TestViewSeqMonotonic(t *testing.T) {
	_, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})
	for i := 1; i <= 5; i++ {
		v := ViewState{Eye: [3]float64{float64(i), 0, 0}}
		if err := m.SetViewContext(testCtx(t), v); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "final view", func() bool { return o.View().Eye[0] == 5 })
	if o.View().Seq != 5 {
		t.Fatalf("view seq = %d, want 5", o.View().Seq)
	}
}

func TestMasterHandoff(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})
	m := dial(AttachOptions{Name: "juelich"})
	o := dial(AttachOptions{Name: "phoenix"})

	if err := o.GrantMaster("juelich", time.Second); err == nil {
		t.Fatal("non-master handed off")
	}
	if err := m.GrantMaster("nosuch", time.Second); err == nil {
		t.Fatal("handoff to unknown client accepted")
	}
	if err := m.GrantMaster("phoenix", time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "role propagation", func() bool {
		return o.Role() == RoleMaster && m.Role() == RoleObserver
	})
	if s.Master() != "phoenix" {
		t.Fatalf("session master = %q", s.Master())
	}
	// The new master steers; the old one cannot.
	if err := o.SetParamContext(testCtx(t), "g", 2); err != nil {
		t.Fatalf("new master rejected: %v", err)
	}
	if err := m.SetParamContext(testCtx(t), "g", 3); err == nil {
		t.Fatal("old master still steering")
	}
}

func TestMasterDisconnectPromotesOldestRequester(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "first"})
	o1 := dial(AttachOptions{Name: "second"}) // pure observer: never promoted
	o2 := dial(AttachOptions{Name: "third", WantMaster: true})
	o3 := dial(AttachOptions{Name: "fourth", WantMaster: true})
	waitFor(t, "all attached", func() bool { return len(s.Clients()) == 4 })

	m.Close()
	// Promotion prefers the oldest client that asked for mastership, not
	// the oldest client outright.
	waitFor(t, "promotion", func() bool { return s.Master() == "third" })
	waitFor(t, "client view of promotion", func() bool {
		return o2.Role() == RoleMaster && o1.Master() == "third" && o3.Master() == "third"
	})
	if o1.Role() != RoleObserver {
		t.Fatal("pure observer was promoted")
	}
}

func TestMasterDisconnectWithOnlyObserversFreesFloor(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "first"})
	o := dial(AttachOptions{Name: "viewer"})
	waitFor(t, "attached", func() bool { return len(s.Clients()) == 2 })

	m.Close()
	// Nobody asked for mastership: the floor is broadcast free rather than
	// press-ganging the observer.
	waitFor(t, "no-master broadcast", func() bool {
		return o.Master() == "" && o.FloorReason() == FloorVacated
	})
	if s.Master() != "" {
		t.Fatalf("session master = %q, want none", s.Master())
	}
	if o.Role() != RoleObserver {
		t.Fatal("observer hijacked into mastership")
	}
	// The floor being free, an explicit request now succeeds at once.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := o.RequestMaster(ctx); err != nil {
		t.Fatalf("RequestMaster on free floor: %v", err)
	}
	waitFor(t, "grant visible", func() bool { return s.Master() == "viewer" })
}

func TestRequestMaster(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})
	// The explicit non-queueing request is denied with the holder's name —
	// never silently ignored.
	err := o.TryRequestMaster(time.Second)
	if !errors.Is(err, ErrFloorHeld) {
		t.Fatalf("TryRequestMaster while held = %v, want ErrFloorHeld", err)
	}
	if !strings.Contains(err.Error(), `"m"`) {
		t.Fatalf("denial does not name the holder: %v", err)
	}
	m.Close()
	waitFor(t, "master release", func() bool { return s.Master() == "" })
	late := dial(AttachOptions{Name: "late"})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := late.RequestMaster(ctx); err != nil {
		t.Fatalf("RequestMaster on free floor: %v", err)
	}
	waitFor(t, "grant", func() bool { return s.Master() == "late" })
	_ = o
}

func TestWantMasterOnAttach(t *testing.T) {
	_, dial := testSession(t, SessionConfig{})
	o := dial(AttachOptions{Name: "viewer"}) // auto-master as first
	o.Close()
	time.Sleep(10 * time.Millisecond)
	m := dial(AttachOptions{Name: "steerer", WantMaster: true})
	waitFor(t, "master on attach", func() bool { return m.Role() == RoleMaster })
}

func TestSampleDelivery(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	c := dial(AttachOptions{Name: "viz"})
	waitFor(t, "attach", func() bool { return len(s.Clients()) == 1 })

	sample := NewSample(42)
	sample.Channels["phi"] = Channel{Dims: [3]int{2, 2, 1}, Data: []float64{1, 2, 3, 4}}
	sample.Channels["seg"] = Scalar(0.7)
	st.Emit(sample)

	select {
	case got := <-c.Samples():
		if got.Step != 42 {
			t.Fatalf("step = %d", got.Step)
		}
		if got.Channels["seg"].Value() != 0.7 {
			t.Fatalf("scalar = %v", got.Channels["seg"].Value())
		}
		if len(got.Channels["phi"].Data) != 4 {
			t.Fatalf("phi data = %v", got.Channels["phi"].Data)
		}
		if got.ByteSize() != 5*8 {
			t.Fatalf("ByteSize = %d", got.ByteSize())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sample not delivered")
	}
}

func TestEmitNeverBlocksOnSlowClient(t *testing.T) {
	s, dial := testSession(t, SessionConfig{SampleQueue: 2})
	st := s.Steered()
	c := dial(AttachOptions{Name: "slow", SampleBuffer: 1})
	waitFor(t, "attach", func() bool { return len(s.Clients()) == 1 })
	_ = c // the client never reads its samples

	start := time.Now()
	for i := 0; i < 500; i++ {
		sample := NewSample(int64(i))
		sample.Channels["x"] = Scalar(float64(i))
		st.Emit(sample)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Emit blocked on slow client: %v for 500 samples", elapsed)
	}
	stats := s.Stats()
	if stats.SamplesEmitted != 500 {
		t.Fatalf("emitted = %d", stats.SamplesEmitted)
	}
	if stats.SamplesDropped == 0 {
		t.Fatal("no drops recorded despite slow client")
	}
}

func TestEmitWithNoClients(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st := s.Steered()
	sample := NewSample(1)
	st.Emit(sample) // must not panic or block
	if s.Stats().SamplesEmitted != 1 {
		t.Fatal("emission not counted")
	}
}

func TestEventsBroadcast(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	c := dial(AttachOptions{Name: "c"})
	waitFor(t, "attach", func() bool { return len(s.Clients()) == 1 })
	st.Event("iterating: residual 1e-3")
	waitFor(t, "event", func() bool {
		evs := c.Events()
		return len(evs) == 1 && evs[0] == "iterating: residual 1e-3"
	})
}

func TestClientCrashDoesNotDisturbOthers(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	good := dial(AttachOptions{Name: "good"})

	// A client that attaches and then has its conn severed abruptly.
	bad := dial(AttachOptions{Name: "bad"})
	waitFor(t, "both attached", func() bool { return len(s.Clients()) == 2 })
	bad.codec.conn.Close() // abrupt severing, no detach frame

	waitFor(t, "dead client dropped", func() bool { return len(s.Clients()) == 1 })
	sample := NewSample(1)
	sample.Channels["x"] = Scalar(1)
	st.Emit(sample)
	select {
	case <-good.Samples():
	case <-time.After(2 * time.Second):
		t.Fatal("surviving client starved")
	}
}

func TestConcurrentClientsSingleMasterInvariant(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	const n = 8
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i] = dial(AttachOptions{Name: string(rune('a' + i))})
	}
	waitFor(t, "all attached", func() bool { return len(s.Clients()) == n })

	// Everyone hammers non-queueing floor requests concurrently; the
	// invariant is that the session never reports more than one master and
	// client roles converge. (Queued-request churn, with releases in the
	// mix, is exercised in floor_test.go.)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				c.TryRequestMaster(time.Second)
			}
		}(c)
	}
	wg.Wait()

	waitFor(t, "role convergence", func() bool {
		masters := 0
		for _, c := range clients {
			if c.Role() == RoleMaster {
				masters++
			}
		}
		return masters == 1
	})
	if s.Master() == "" {
		t.Fatal("no master after churn")
	}
}

func TestControlStringers(t *testing.T) {
	if ControlContinue.String() != "continue" || ControlStop.String() != "stop" ||
		ControlPaused.String() != "paused" || ControlCheckpoint.String() != "checkpoint" {
		t.Fatal("control names wrong")
	}
	if Control(99).String() != "unknown" {
		t.Fatal("unknown control must format")
	}
	if RoleMaster.String() != "master" || RoleObserver.String() != "observer" {
		t.Fatal("role names wrong")
	}
}
