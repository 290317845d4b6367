package hub

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func testHub(t *testing.T, cfg Config) (*Hub, string) {
	t.Helper()
	h := New(cfg)
	t.Cleanup(h.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	return h, l.Addr().String()
}

// sessionFloor reads one hosted session's floor snapshot.
func sessionFloor(h *Hub, name string) (core.FloorStats, bool) {
	sess, ok := h.Lookup(name)
	if !ok {
		return core.FloorStats{}, false
	}
	return sess.FloorStats(), true
}

func dialSession(t *testing.T, addr string, opts core.AttachOptions) *core.Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Attach(conn, opts)
	if err != nil {
		t.Fatalf("attach %q to session %q: %v", opts.Name, opts.Session, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRoutingStability pins stable, non-degenerate routing: a session name
// maps to one shard, the same shard every time, in every goroutine and in
// every hub with the same shard count, and the spread over shards leaves
// none empty.
func TestRoutingStability(t *testing.T) {
	h := New(Config{Shards: 8})
	defer h.Close()

	perShard := make(map[int]int)
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("session-%03d", i)
		want := h.ShardOf(name)
		perShard[want]++
		for j := 0; j < 10; j++ {
			if got := h.ShardOf(name); got != want {
				t.Fatalf("ShardOf(%q) unstable: %d then %d", name, want, got)
			}
		}
		// A second hub with the same shard count routes identically.
		h2 := New(Config{Shards: 8})
		if got := h2.ShardOf(name); got != want {
			t.Fatalf("ShardOf(%q) differs across hubs: %d vs %d", name, want, got)
		}
		h2.Close()
		if i > 0 { // only need the cross-hub check once per loop shape
			break
		}
	}
	for i := 0; i < 256; i++ {
		perShard[h.ShardOf(fmt.Sprintf("session-%03d", i))]++
	}
	for s := 0; s < 8; s++ {
		if perShard[s] == 0 {
			t.Fatalf("shard %d received no sessions out of 256: degenerate spread %v", s, perShard)
		}
	}

	// Created sessions land on — and are served from — their computed shard.
	sess, err := h.CreateSession(core.SessionConfig{Name: "pinned"})
	if err != nil {
		t.Fatal(err)
	}
	sh := h.shards[h.ShardOf("pinned")]
	if got, ok := sh.lookup("pinned"); !ok || got != sess {
		t.Fatal("session not registered on its computed shard")
	}
}

// TestConcurrentAttachSteerDetach drives 12 sessions, each with a steering
// master and observers attaching, steering, and detaching concurrently: the
// multi-session load the hub exists for.
func TestConcurrentAttachSteerDetach(t *testing.T) {
	const nSessions = 12
	const observers = 3

	h, addr := testHub(t, Config{Shards: 4})
	type run struct {
		st   *core.Steered
		vals chan float64
		stop chan struct{}
	}
	runs := make([]*run, nSessions)
	for i := 0; i < nSessions; i++ {
		sess, err := h.CreateSession(core.SessionConfig{
			Name: fmt.Sprintf("run-%02d", i), AppName: "osc",
		})
		if err != nil {
			t.Fatal(err)
		}
		r := &run{st: sess.Steered(), vals: make(chan float64, 64), stop: make(chan struct{})}
		if err := r.st.RegisterFloat("x", 0, 0, 100, "", func(v float64) { r.vals <- v }); err != nil {
			t.Fatal(err)
		}
		runs[i] = r
		// Simulation loop: poll and emit.
		go func(i int) {
			step := int64(0)
			for {
				select {
				case <-r.stop:
					return
				default:
				}
				r.st.Poll()
				s := core.NewSample(step)
				s.Channels["x"] = core.Scalar(float64(step))
				r.st.Emit(s)
				step++
				time.Sleep(time.Millisecond)
			}
		}(i)
		t.Cleanup(func() { close(r.stop) })
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nSessions*(observers+1))
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			session := fmt.Sprintf("run-%02d", i)
			master := dialSession(t, addr, core.AttachOptions{
				Name: "master", Session: session, WantMaster: true,
			})
			if master.SessionName() != session {
				errCh <- fmt.Errorf("routed to %q, wanted %q", master.SessionName(), session)
				return
			}
			// Observers attach, take a few samples, detach.
			var owg sync.WaitGroup
			for o := 0; o < observers; o++ {
				owg.Add(1)
				go func(o int) {
					defer owg.Done()
					obs := dialSession(t, addr, core.AttachOptions{
						Name: fmt.Sprintf("obs-%d", o), Session: session,
					})
					select {
					case <-obs.Samples():
					case <-time.After(5 * time.Second):
						errCh <- fmt.Errorf("%s obs-%d: no sample", session, o)
					}
					obs.Close()
				}(o)
			}
			// The master steers its own session's parameter.
			want := float64(10 + i)
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := master.SetParamContext(sctx, "x", want)
			scancel()
			if err != nil {
				errCh <- fmt.Errorf("%s steer: %v", session, err)
				return
			}
			select {
			case got := <-runs[i].vals:
				if got != want {
					errCh <- fmt.Errorf("%s applied %v, want %v (cross-session steer leak?)", session, got, want)
				}
			case <-time.After(5 * time.Second):
				errCh <- fmt.Errorf("%s: steer never applied", session)
			}
			owg.Wait()
			master.Close()
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	waitFor(t, "all clients detached", func() bool { return h.Stats().Clients == 0 })
	st := h.Stats()
	if st.Sessions != nSessions {
		t.Fatalf("sessions = %d, want %d", st.Sessions, nSessions)
	}
	if st.SteersApplied != nSessions {
		t.Fatalf("steers applied = %d, want %d", st.SteersApplied, nSessions)
	}
	if st.SamplesEmitted == 0 || st.SamplesDelivered == 0 {
		t.Fatalf("no fan-out recorded: %+v", st)
	}
}

// TestDefaultSessionRouting preserves the classic single-session client: no
// Session in AttachOptions lands on the hub's default session.
func TestDefaultSessionRouting(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 2})
	if _, err := h.CreateSession(core.SessionConfig{Name: "only"}); err != nil {
		t.Fatal(err)
	}
	c := dialSession(t, addr, core.AttachOptions{Name: "legacy"})
	if c.SessionName() != "only" {
		t.Fatalf("default routing gave %q", c.SessionName())
	}
}

// TestAttachUnknownSessionRejected covers the routing error path.
func TestAttachUnknownSessionRejected(t *testing.T) {
	_, addr := testHub(t, Config{Shards: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := core.Attach(conn, core.AttachOptions{Session: "ghost", Timeout: 2 * time.Second}); err == nil {
		t.Fatal("attach to unknown session succeeded")
	}
}

// TestEviction covers all three ways a session ends — explicit Evict, a
// steered stop followed by Close, and hub shutdown — and that ended sessions
// leave the registry so their names are reusable.
func TestEviction(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 4})

	// Explicit evict detaches clients and frees the name.
	if _, err := h.CreateSession(core.SessionConfig{Name: "doomed"}); err != nil {
		t.Fatal(err)
	}
	c := dialSession(t, addr, core.AttachOptions{Session: "doomed"})
	if !h.Evict("doomed") {
		t.Fatal("evict reported no session")
	}
	if _, ok := h.Lookup("doomed"); ok {
		t.Fatal("evicted session still registered")
	}
	waitFor(t, "evicted client detach", func() bool {
		select {
		case <-c.Samples():
			return false
		default:
			return c.Err() != nil
		}
	})

	// A session whose application ends (Close after a steered stop) is
	// auto-evicted; its name can be reused and routes to the new instance.
	sess, err := h.CreateSession(core.SessionConfig{Name: "doomed"})
	if err != nil {
		t.Fatalf("evicted name not reusable: %v", err)
	}
	sess.QueueStop()
	if sess.Steered().Poll() != core.ControlStop {
		t.Fatal("stop not seen")
	}
	sess.Close()
	waitFor(t, "auto-evict", func() bool { _, ok := h.Lookup("doomed"); return !ok })

	if h.Evict("never-existed") {
		t.Fatal("evict of unknown session reported true")
	}
}

// TestBatchedFanout exercises the per-shard writer pools: one session, many
// clients, a burst of samples; every client sees the freshest data and the
// hub's aggregate stats record the fan-out. (The small-pool continuation
// path is core's TestWriterPoolSmallBatches.)
func TestBatchedFanout(t *testing.T) {
	const nClients = 10
	h, addr := testHub(t, Config{Shards: 2})
	sess, err := h.CreateSession(core.SessionConfig{Name: "burst", SampleQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Steered()

	clients := make([]*core.Client, nClients)
	for i := range clients {
		clients[i] = dialSession(t, addr, core.AttachOptions{
			Name: fmt.Sprintf("viewer-%d", i), Session: "burst", SampleBuffer: 256,
		})
	}
	waitFor(t, "attaches", func() bool { return sess.ClientCount() == nClients })

	const emitted = 200
	for i := 0; i < emitted; i++ {
		s := core.NewSample(int64(i))
		s.Channels["x"] = core.Scalar(float64(i))
		st.Emit(s)
	}

	// Every client eventually receives the final sample (freshest-wins), and
	// the stream it sees is monotonic.
	for i, c := range clients {
		last := int64(-1)
		deadline := time.Now().Add(5 * time.Second)
		for last != emitted-1 && time.Now().Before(deadline) {
			select {
			case s := <-c.Samples():
				if s.Step <= last {
					t.Fatalf("client %d: non-monotonic %d after %d", i, s.Step, last)
				}
				last = s.Step
			case <-time.After(300 * time.Millisecond):
				t.Fatalf("client %d stalled at step %d", i, last)
			}
		}
		if last != emitted-1 {
			t.Fatalf("client %d never saw final sample (at %d)", i, last)
		}
	}

	stats := h.Stats()
	if stats.SamplesEmitted != emitted {
		t.Fatalf("emitted = %d", stats.SamplesEmitted)
	}
	if stats.SamplesDelivered+stats.SamplesDropped != emitted*nClients {
		t.Fatalf("delivered %d + dropped %d != %d", stats.SamplesDelivered, stats.SamplesDropped, emitted*nClients)
	}
}

// TestAttachDuringEmissionBurst pins the handshake ordering: while a session
// emits as fast as it can, every attaching client must still see the welcome
// as its first frame — no pooled writer may slip a sample in front of it.
func TestAttachDuringEmissionBurst(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 2})
	sess, err := h.CreateSession(core.SessionConfig{Name: "hot", SampleQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Steered()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for step := int64(0); ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			s := core.NewSample(step)
			s.Channels["x"] = core.Scalar(float64(step))
			st.Emit(s)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			c, err := core.Attach(conn, core.AttachOptions{
				Name: fmt.Sprintf("burst-%d", i), Session: "hot", Timeout: 5 * time.Second,
			})
			if err != nil {
				errCh <- fmt.Errorf("attach %d during burst: %w", i, err)
				return
			}
			select {
			case <-c.Samples():
			case <-time.After(5 * time.Second):
				errCh <- fmt.Errorf("client %d: no samples after attach", i)
			}
			c.Close()
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestControlSurvivesSampleBurst pins the split-queue property end to end
// through the pooled writers: an event queued before a sample burst is
// delivered, not evicted.
func TestControlSurvivesSampleBurst(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 1})
	sess, err := h.CreateSession(core.SessionConfig{Name: "s", SampleQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Steered()
	c := dialSession(t, addr, core.AttachOptions{Session: "s"})
	waitFor(t, "attach", func() bool { return sess.ClientCount() == 1 })

	st.Event("precious")
	for i := 0; i < 500; i++ {
		st.Emit(core.NewSample(int64(i)))
	}
	waitFor(t, "event delivery", func() bool {
		for _, ev := range c.Events() {
			if ev == "precious" {
				return true
			}
		}
		return false
	})
}

// TestHubFloorControl drives the floor-control subsystem through the hub:
// session floor defaults flow from Config.SessionDefaults, a wedged master
// behind the pooled writers loses its lease, per-session floor state is
// visible via its FloorStats, and the hub Stats aggregate the transitions.
func TestHubFloorControl(t *testing.T) {
	h, addr := testHub(t, Config{
		Shards: 2,
		SessionDefaults: core.SessionConfig{
			FloorPolicy: core.FloorSteal,
			MasterLease: 60 * time.Millisecond,
		},
	})
	sess, err := h.CreateSession(core.SessionConfig{Name: "contested"})
	if err != nil {
		t.Fatal(err)
	}

	// The wedged master: heartbeats disabled, never sends after attach.
	m := dialSession(t, addr, core.AttachOptions{
		Name: "wedged", Session: "contested", HeartbeatInterval: -1,
	})
	if m.FloorPolicy() != core.FloorSteal || m.MasterLease() != 60*time.Millisecond {
		t.Fatalf("welcome floor advertisement: %v/%v", m.FloorPolicy(), m.MasterLease())
	}
	next := dialSession(t, addr, core.AttachOptions{Name: "next", Session: "contested"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := next.RequestMaster(ctx); err != nil {
		t.Fatalf("queued requester not granted after lease expiry: %v", err)
	}
	waitFor(t, "expiry visible", func() bool { return sess.Master() == "next" })

	fs, ok := sessionFloor(h, "contested")
	if !ok || fs.Master != "next" || fs.Expiries == 0 {
		t.Fatalf("floor = %+v, %v", fs, ok)
	}
	if _, ok := sessionFloor(h, "ghost"); ok {
		t.Fatal("Lookup found a ghost session")
	}

	// Administrative steal through the hub (policy came from the defaults).
	admin := dialSession(t, addr, core.AttachOptions{Name: "admin", Session: "contested"})
	if err := admin.StealMaster(time.Second); err != nil {
		t.Fatalf("steal: %v", err)
	}
	waitFor(t, "steal visible", func() bool { return sess.Master() == "admin" })

	st := h.Stats()
	if st.Floor.Grants == 0 || st.Floor.Expiries == 0 || st.Floor.Steals == 0 {
		t.Fatalf("hub floor aggregates = %+v", st)
	}
}

// TestHubFloorDefaultsRespectExplicitValues: SessionDefaults fill only
// unset floor fields — an explicit FloorFIFO is not upgraded to the hub's
// default policy, and a negative MasterLease disables leases per session
// despite a hub-wide lease default.
func TestHubFloorDefaultsRespectExplicitValues(t *testing.T) {
	h, addr := testHub(t, Config{
		Shards: 1,
		SessionDefaults: core.SessionConfig{
			FloorPolicy: core.FloorSteal,
			MasterLease: 50 * time.Millisecond,
		},
	})
	if _, err := h.CreateSession(core.SessionConfig{
		Name:        "pinned",
		FloorPolicy: core.FloorFIFO,
		MasterLease: -1,
	}); err != nil {
		t.Fatal(err)
	}
	c := dialSession(t, addr, core.AttachOptions{Name: "m", Session: "pinned"})
	if c.FloorPolicy() != core.FloorFIFO {
		t.Fatalf("explicit FIFO upgraded to %v", c.FloorPolicy())
	}
	if c.MasterLease() != 0 {
		t.Fatalf("explicitly disabled lease advertised as %v", c.MasterLease())
	}
	// No lease: steal attempts under FIFO are denied, and the master keeps
	// the floor without heartbeats well past the hub's default lease.
	thief := dialSession(t, addr, core.AttachOptions{Name: "thief", Session: "pinned"})
	if err := thief.StealMaster(time.Second); !errors.Is(err, core.ErrFloorHeld) {
		t.Fatalf("steal under pinned FIFO = %v", err)
	}
	time.Sleep(150 * time.Millisecond) // 3× the hub default lease
	if fs, _ := sessionFloor(h, "pinned"); fs.Master != "m" || fs.Expiries != 0 {
		t.Fatalf("lease-disabled session expired its master: %+v", fs)
	}
}

// TestHubStatsSumSessions: the hub aggregate is the exact sum of its
// sessions' counters, blob traffic and voluntary floor releases included,
// and reading it changes nothing.
func TestHubStatsSumSessions(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 2})
	a, b := "sum-a", "sum-b"
	for i := 0; h.ShardOf(a) == h.ShardOf(b); i++ {
		b = fmt.Sprintf("sum-b%d", i)
	}
	sa, err := h.CreateSession(core.SessionConfig{Name: a})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := h.CreateSession(core.SessionConfig{Name: b})
	if err != nil {
		t.Fatal(err)
	}
	sa.Steered().EmitBlob(&core.Blob{Stream: "pixels", Data: make([]byte, 1000)})
	sb.Steered().EmitBlob(&core.Blob{Stream: "pixels", Data: make([]byte, 24)})

	// The first attacher is granted the floor at attach and gives it up.
	c := dialSession(t, addr, core.AttachOptions{Name: "m", Session: a})
	if err := c.ReleaseMaster(time.Second); err != nil {
		t.Fatalf("release: %v", err)
	}
	waitFor(t, "release seen by the client", func() bool { return c.Master() == "" })
	c.Close()
	waitFor(t, "client detached", func() bool { return h.Stats().Clients == 0 })

	st := h.Stats()
	if st.Sessions != 2 || st.BlobsEmitted != 2 || st.BlobBytes != 1024 {
		t.Fatalf("sessions/blobs/bytes = %d/%d/%d, want 2/2/1024", st.Sessions, st.BlobsEmitted, st.BlobBytes)
	}
	if st.Floor.Grants != 1 || st.Floor.Releases != 1 || st.Floor.Master != "" {
		t.Fatalf("floor aggregate = %+v, want 1 grant, 1 release, no master", st.Floor)
	}
	if again := h.Stats(); again != st {
		t.Fatalf("Stats changed with no traffic:\n%+v\n%+v", st, again)
	}
}

// TestObserverSeesSteerAheadOfInterval is the push-through property over
// real sockets and the pooled writers: with a 500ms observer interval and a
// dense sample stream, an observer-tier client still sees each steer's
// echo on the sample stream well inside the interval.
func TestObserverSeesSteerAheadOfInterval(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 1})
	sess, err := h.CreateSession(core.SessionConfig{Name: "s", ObserverInterval: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Steered()
	var echo float64 // simulation goroutine only
	dirty := false
	if err := st.RegisterFloat("echo", 0, 0, 1e6, "", func(v float64) { echo, dirty = v, true }); err != nil {
		t.Fatal(err)
	}
	master := dialSession(t, addr, core.AttachOptions{Session: "s", Name: "master", WantMaster: true})
	obs := dialSession(t, addr, core.AttachOptions{Session: "s", Name: "obs", Tier: core.TierObserver,
		Subscriptions: []core.Subscription{core.ChannelSub("echo")}})

	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // the simulation: poll every step, emit every tenth and after a steer
		defer close(done)
		for step := int64(1); ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Poll()
			if dirty || step%10 == 0 {
				s := core.NewSample(step)
				s.Channels["echo"] = core.Scalar(echo)
				st.Emit(s)
				dirty = false
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-done }()

	for v := 1.0; v <= 4; v++ {
		t0 := time.Now()
		if err := master.SetParamContext(context.Background(), "echo", v); err != nil {
			t.Fatal(err)
		}
		for seen := false; !seen; {
			select {
			case s := <-obs.Samples():
				seen = s.Channels["echo"].Value() == v
			case <-time.After(2 * time.Second):
				t.Fatalf("observer never saw echo = %v", v)
			}
		}
		if took := time.Since(t0); took >= 250*time.Millisecond {
			t.Fatalf("observer saw echo = %v after %v, want under half the 500ms interval", v, took)
		}
	}
	if h.Stats().RelayPushed == 0 {
		t.Fatal("hub stats count no pushed observer flush")
	}
}
