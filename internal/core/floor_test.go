package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRequestMasterQueuedThenGranted is the basic grant flow: a contested
// blocking request queues (the requester is told so, with the holder's
// name), and the holder's release passes the floor to it.
func TestRequestMasterQueuedThenGranted(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})

	granted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		granted <- o.RequestMaster(ctx)
	}()
	waitFor(t, "request queued", func() bool { return s.FloorStats().Pending == 1 })

	if err := m.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-granted; err != nil {
		t.Fatalf("queued request not granted: %v", err)
	}
	waitFor(t, "grant visible everywhere", func() bool {
		return s.Master() == "o" && o.Role() == RoleMaster && m.Master() == "o"
	})
	if o.FloorReason() != FloorGranted {
		t.Fatalf("reason = %v, want granted", o.FloorReason())
	}
	st := s.FloorStats()
	if st.Pending != 0 || st.Releases != 1 || st.Grants < 2 { // attach grant + queue grant
		t.Fatalf("floor stats = %+v", st)
	}
}

// TestReleaseMasterWithEmptyQueueFreesFloor: nobody waiting, so release
// leaves the session masterless and says so on the broadcast.
func TestReleaseMasterWithEmptyQueueFreesFloor(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})
	if err := m.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "floor free", func() bool {
		return s.Master() == "" && o.Master() == "" && o.FloorReason() == FloorReleased
	})
	// Released floor means the old holder cannot steer either.
	if err := m.PauseContext(testCtx(t)); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("ex-master pause = %v, want ErrNotMaster", err)
	}
}

// TestReleaseMasterCancelsQueuedRequest: a waiter's release withdraws its
// queued request instead of touching the floor.
func TestReleaseMasterCancelsQueuedRequest(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- o.RequestMaster(ctx) }()
	waitFor(t, "request queued", func() bool { return s.FloorStats().Pending == 1 })

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request = %v", err)
	}
	waitFor(t, "request withdrawn", func() bool { return s.FloorStats().Pending == 0 })

	// The floor must now bypass the withdrawn waiter entirely.
	if err := m.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "floor free, not granted to the withdrawn waiter", func() bool {
		return s.Master() == ""
	})
	if o.Role() == RoleMaster {
		t.Fatal("withdrawn request was granted")
	}
}

// TestFloorQueueFIFOOrder: contested requests are granted strictly in
// arrival order as the floor is passed along.
func TestFloorQueueFIFOOrder(t *testing.T) {
	s, dial := testSession(t, SessionConfig{FloorPolicy: FloorFIFO})
	m := dial(AttachOptions{Name: "holder"})

	const n = 3
	waiters := make([]*Client, n)
	grants := make([]chan error, n)
	order := make(chan string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		waiters[i] = dial(AttachOptions{Name: name})
		grants[i] = make(chan error, 1)
		c, idx := waiters[i], i
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := c.RequestMaster(ctx)
			if err == nil {
				order <- c.Name()
			}
			grants[idx] <- err
		}()
		// Serialise arrivals so the expected order is deterministic.
		waitFor(t, "request queued", func() bool { return s.FloorStats().Pending == i+1 })
	}

	prev := m
	for i := 0; i < n; i++ {
		if err := prev.ReleaseMaster(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := <-grants[i]; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		if got := <-order; got != fmt.Sprintf("w%d", i) {
			t.Fatalf("grant %d went to %q", i, got)
		}
		prev = waiters[i]
	}
	if st := s.FloorStats(); st.Pending != 0 {
		t.Fatalf("pending = %d after all grants", st.Pending)
	}
}

// TestFloorQueuePriorityOrder: under the priority policy the queue is
// ordered by attach priority, arrival breaking ties.
func TestFloorQueuePriorityOrder(t *testing.T) {
	s, dial := testSession(t, SessionConfig{FloorPolicy: FloorPriority})
	m := dial(AttachOptions{Name: "holder"})

	specs := []struct {
		name     string
		priority int64
	}{{"low", 1}, {"high", 9}, {"mid", 5}, {"high2", 9}}
	want := []string{"high", "high2", "mid", "low"} // priority desc, arrival asc

	order := make(chan string, len(specs))
	clients := map[string]*Client{}
	for i, sp := range specs {
		c := dial(AttachOptions{Name: sp.name, Priority: sp.priority})
		clients[sp.name] = c
		go func(c *Client) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.RequestMaster(ctx); err == nil {
				order <- c.Name()
			}
		}(c)
		waitFor(t, "request queued", func() bool { return s.FloorStats().Pending == i+1 })
	}

	prev := m
	for _, name := range want {
		if err := prev.ReleaseMaster(time.Second); err != nil {
			t.Fatal(err)
		}
		if got := <-order; got != name {
			t.Fatalf("grant went to %q, want %q", got, name)
		}
		prev = clients[name]
	}
}

// TestStealMasterPolicyGate: administrative preemption works under the
// steal policy and is an explicit denial under any other.
func TestStealMasterPolicyGate(t *testing.T) {
	s, dial := testSession(t, SessionConfig{FloorPolicy: FloorSteal})
	m := dial(AttachOptions{Name: "m"})
	admin := dial(AttachOptions{Name: "admin"})
	if err := admin.StealMaster(time.Second); err != nil {
		t.Fatalf("steal under steal policy: %v", err)
	}
	waitFor(t, "steal visible", func() bool {
		return s.Master() == "admin" && m.Master() == "admin" && m.FloorReason() == FloorStolen
	})
	if err := m.PauseContext(testCtx(t)); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("preempted master pause = %v, want ErrNotMaster", err)
	}
	if st := s.FloorStats(); st.Steals != 1 {
		t.Fatalf("steals = %d", st.Steals)
	}

	// FIFO policy: the same request is denied, naming the holder.
	s2, dial2 := testSession(t, SessionConfig{Name: "fifo-session", FloorPolicy: FloorFIFO})
	dial2(AttachOptions{Name: "m"})
	thief := dial2(AttachOptions{Name: "thief"})
	if err := thief.StealMaster(time.Second); !errors.Is(err, ErrFloorHeld) {
		t.Fatalf("steal under fifo = %v, want ErrFloorHeld", err)
	}
	if st := s2.FloorStats(); st.Denials != 1 || st.Steals != 0 {
		t.Fatalf("fifo steal stats = %+v", st)
	}
}

// TestLeaseExpiryDeterministic is the acceptance test of the master lease,
// on a virtual clock so no real timing is involved: a master that stops
// sending (stalled heartbeat) loses the floor at the sweep after its lease
// lapses, and the next queued requester is granted it.
func TestLeaseExpiryDeterministic(t *testing.T) {
	var offset atomic.Int64 // virtual clock: real time + offset
	s, dial := testSession(t, SessionConfig{
		Name: "lease", MasterLease: time.Hour,
		clock: func() time.Time { return time.Now().Add(time.Duration(offset.Load())) },
	})

	// The master's heartbeats are disabled: after the attach it is wedged.
	m := dial(AttachOptions{Name: "wedged", HeartbeatInterval: -1})
	o := dial(AttachOptions{Name: "next"})

	granted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		granted <- o.RequestMaster(ctx)
	}()
	waitFor(t, "request queued", func() bool { return s.FloorStats().Pending == 1 })

	// One sweep inside the lease: nothing expires.
	if s.sweepFloor() {
		t.Fatal("lease expired before the timeout")
	}
	if s.Master() != "wedged" {
		t.Fatalf("master = %q before expiry", s.Master())
	}

	// Jump the clock past the lease; the next maintenance sweep must take
	// the floor and grant the queued requester.
	offset.Store(int64(2 * time.Hour))
	if !s.sweepFloor() {
		t.Fatal("lease did not expire after the timeout")
	}
	if err := <-granted; err != nil {
		t.Fatalf("queued requester not granted on expiry: %v", err)
	}
	waitFor(t, "expiry visible", func() bool {
		return s.Master() == "next" && o.Role() == RoleMaster && o.FloorReason() == FloorExpired
	})
	st := s.FloorStats()
	if st.Expiries != 1 || st.Pending != 0 {
		t.Fatalf("floor stats after expiry = %+v", st)
	}
	// The wedged client is demoted, not evicted: when it wakes, its steers
	// are rejected — no split-brain mastership.
	if err := m.PauseContext(testCtx(t)); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("expired master pause = %v, want ErrNotMaster", err)
	}
	if got := len(s.Clients()); got != 2 {
		t.Fatalf("client count after expiry = %d (expiry must not evict)", got)
	}
	// Waking up also re-renewed its lease (any inbound frame does), so the
	// next sweep expires nothing.
	if s.sweepFloor() {
		t.Fatal("sweep expired a freshly renewed non-master lease")
	}
}

// TestLeaseSweepCostsNoGoroutine: a leased session's sweep is a
// self-re-arming timer, not a goroutine, so NewSession starts none and
// Close leaves none behind. Goroutines a straggling earlier test still
// winds down may only lower the count, so both checks wait for it to settle.
func TestLeaseSweepCostsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSession(SessionConfig{MasterLease: time.Hour, Writer: &inlineWriter{batch: 16}})
	waitFor(t, "NewSession to add no goroutine", func() bool { return runtime.NumGoroutine() <= base })
	s.Close()
	waitFor(t, "Close to leave no goroutine", func() bool { return runtime.NumGoroutine() <= base })
}

// TestLeaseExpirySweeper exercises the real lease timer end to end:
// with a short lease and a wedged master, the floor moves without any test
// intervention, within a small multiple of the lease.
func TestLeaseExpirySweeper(t *testing.T) {
	s, dial := testSession(t, SessionConfig{MasterLease: 50 * time.Millisecond})
	dial(AttachOptions{Name: "wedged", HeartbeatInterval: -1})
	o := dial(AttachOptions{Name: "next"})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := o.RequestMaster(ctx); err != nil {
		t.Fatalf("RequestMaster: %v", err)
	}
	// The sweep runs at lease/4, so the floor must move within
	// 1.25×lease of the master's last frame; allow generous CI slack while
	// still proving bounded, sub-second takeover.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("takeover took %v", elapsed)
	}
	waitFor(t, "expiry grant visible", func() bool { return s.Master() == "next" })
	if st := s.FloorStats(); st.Expiries == 0 {
		t.Fatal("no expiry counted")
	}
}

// TestHeartbeatKeepsLease is the liveness complement: a master that only
// heartbeats (no requests) keeps the floor across many lease intervals.
func TestHeartbeatKeepsLease(t *testing.T) {
	s, dial := testSession(t, SessionConfig{MasterLease: 60 * time.Millisecond})
	m := dial(AttachOptions{Name: "live"}) // auto heartbeat at lease/3
	if m.MasterLease() != 60*time.Millisecond {
		t.Fatalf("advertised lease = %v", m.MasterLease())
	}
	time.Sleep(300 * time.Millisecond) // five lease intervals
	if s.Master() != "live" {
		t.Fatalf("heartbeating master lost the floor to %q", s.Master())
	}
	if st := s.FloorStats(); st.Expiries != 0 {
		t.Fatalf("expiries = %d for a live master", st.Expiries)
	}
}

// TestFloorChurnUnderRace hammers the contested queue from many goroutines
// while clients attach and detach; run under -race this is the memory-model
// check of the floor path, and the end state must converge to at most one
// master with an empty queue.
func TestFloorChurnUnderRace(t *testing.T) {
	s, dial := testSession(t, SessionConfig{FloorPolicy: FloorFIFO, MasterLease: time.Second})
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := dial(AttachOptions{Name: fmt.Sprintf("c%d", i)})
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				if err := c.RequestMaster(ctx); err == nil {
					c.ReleaseMaster(time.Second)
				}
				cancel()
			}
		}(c)
	}
	// Attach/detach churn alongside the floor contention.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 10; iter++ {
			c := dial(AttachOptions{Name: fmt.Sprintf("churn-%d", iter), WantMaster: true})
			time.Sleep(2 * time.Millisecond)
			c.Close()
		}
	}()
	wg.Wait()

	waitFor(t, "queue drained", func() bool {
		st := s.FloorStats()
		return st.Pending == 0
	})
	masters := 0
	for _, name := range s.Clients() {
		if name == s.Master() {
			masters++
		}
	}
	if s.Master() != "" && masters != 1 {
		t.Fatalf("master %q not among clients %v", s.Master(), s.Clients())
	}
}

// TestMasterStateLateJoinerConvergence: floor transitions ride the
// journaled encode-once broadcast path, and a late joiner's welcome must
// carry the same master a live observer converged to — whatever mix of
// grants, handoffs and releases preceded the attach.
func TestMasterStateLateJoinerConvergence(t *testing.T) {
	sink := &memSink{}
	s, dial := testSession(t, SessionConfig{Journal: sink})
	m := dial(AttachOptions{Name: "alice"})
	o := dial(AttachOptions{Name: "bob"})

	// A history of transitions: handoff, release, re-grant.
	if err := m.GrantMaster("bob", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := o.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := m.RequestMaster(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live observer convergence", func() bool { return o.Master() == "alice" })

	late := dial(AttachOptions{Name: "late"})
	// The welcome is the authority: straight after attach — before any new
	// broadcast — the late joiner agrees with the live observer and the
	// session.
	if late.Master() != "alice" || late.Master() != o.Master() || s.Master() != "alice" {
		t.Fatalf("late %q, live %q, session %q", late.Master(), o.Master(), s.Master())
	}

	// And the transitions were journaled as state frames (foldable by
	// compaction), not skipped.
	states := 0
	for _, c := range sink.classes() {
		if c == JournalState {
			states++
		}
	}
	if states < 3 {
		t.Fatalf("journal recorded %d state frames, want the floor transitions", states)
	}
}

// TestMasterStateRestartConvergence: a restarted session replays its
// journal and must come up with the floor free — the recorded master's
// connection did not survive the restart, and a phantom holder nobody can
// release or heartbeat for would wedge steering until the lease reaped it.
// The journal-replayed state and the welcome frame must agree.
func TestMasterStateRestartConvergence(t *testing.T) {
	sink := &memSink{}
	s1, dial1 := testSession(t, SessionConfig{Name: "gen1", Journal: sink})
	st := s1.Steered()
	if err := st.RegisterFloat("g", 1, 0, 10, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	m := dial1(AttachOptions{Name: "alice"})
	if err := m.SetParamContext(testCtx(t), "g", 7); err != nil {
		t.Fatal(err)
	}
	st.Poll()
	waitFor(t, "transition journaled", func() bool {
		for _, c := range sink.classes() {
			if c == JournalState {
				return true
			}
		}
		return false
	})
	s1.Close()

	// "Restart": a fresh session over the same journal.
	s2, dial2 := testSession(t, SessionConfig{Name: "gen2", Journal: sink})
	st2 := s2.Steered()
	if err := st2.RegisterFloat("g", 1, 0, 10, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Parameter state revived; master state deliberately not.
	if p := s2.Params(); len(p) != 1 || p[0].Value != FloatValue(7) {
		t.Fatalf("recovered params = %+v", p)
	}
	if s2.Master() != "" {
		t.Fatalf("restart resurrected phantom master %q", s2.Master())
	}
	// The first client's welcome agrees with the replayed state (and, being
	// the first attacher, it is granted the free floor — visible in its own
	// welcome Role, not via any phantom name).
	c := dial2(AttachOptions{Name: "carol"})
	if c.Master() != "carol" || c.Role() != RoleMaster {
		t.Fatalf("post-restart attach: master %q role %v", c.Master(), c.Role())
	}
	if p, _ := c.Param("g"); p.Value != FloatValue(7) {
		t.Fatalf("post-restart welcome param = %+v", p)
	}
}

// TestMasterChangeOrderingGuard: master-changed broadcasts are emitted
// outside the session lock by whichever goroutine performed the
// transition, so two of them can reach a client's queue out of order. The
// transition seq (assigned under the lock, anchored by the welcome) makes
// application newest-wins: a stale frame must not regress the client's
// master view. This test plays a raw server feeding frames in the wrong
// order.
func TestMasterChangeOrderingGuard(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	srv := newCodec(srvConn)
	go func() {
		srv.read() // attach
		srv.write(&envelope{Type: msgWelcome, Welcome: &welcomeMsg{
			SessionName: "s", ClientName: "c", Master: "a", FloorSeq: 1,
		}}, time.Second)
		// Transition 3 (master=b) arrives before transition 2 (master=x):
		// the stale frame must be dropped.
		srv.write(&envelope{Type: msgMasterChanged, Seq: 3, Target: "b", Reason: FloorGranted}, time.Second)
		srv.write(&envelope{Type: msgMasterChanged, Seq: 2, Target: "x", Reason: FloorHandoff}, time.Second)
		// A genuinely newer transition still applies.
		srv.write(&envelope{Type: msgMasterChanged, Seq: 4, Target: "", Reason: FloorReleased}, time.Second)
		srv.write(&envelope{Type: msgEvent, Event: "fence"}, time.Second)
	}()
	c, err := Attach(cliConn, AttachOptions{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "fence event", func() bool { return len(c.Events()) == 1 })
	// After seq 3 then stale seq 2: master must have stayed "b"; after
	// seq 4 it is "".
	if got := c.Master(); got != "" {
		t.Fatalf("master = %q after out-of-order frames", got)
	}
	if c.FloorReason() != FloorReleased {
		t.Fatalf("reason = %v", c.FloorReason())
	}
}

// TestRequestMasterRecoversLostGrant: the grant broadcast rides the lossy
// control ring; a waiter whose grant frame never arrives must still learn
// it holds the floor via the idempotent re-request fallback.
func TestRequestMasterRecoversLostGrant(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	srv := newCodec(srvConn)
	go func() {
		e, _ := srv.read() // attach
		_ = e
		srv.write(&envelope{Type: msgWelcome, Welcome: &welcomeMsg{
			SessionName: "s", ClientName: "c", Master: "holder", FloorSeq: 1,
		}}, time.Second)
		// First request: queued. The grant broadcast is then "lost" (never
		// sent). The re-request must be answered with a plain OK.
		for i := 0; ; i++ {
			req, err := srv.read()
			if err != nil {
				return
			}
			if req.Type != msgRequestMaster {
				continue
			}
			if i == 0 {
				srv.write(&envelope{Type: msgAck, Seq: req.Seq, Ack: &ackMsg{
					OK: true, Code: codeFloorQueued, Err: `queued at 1 behind "holder"`,
				}}, time.Second)
			} else {
				srv.write(&envelope{Type: msgAck, Seq: req.Seq, Ack: &ackMsg{OK: true}}, time.Second)
				return
			}
		}
	}()
	c, err := Attach(cliConn, AttachOptions{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := c.RequestMaster(ctx); err != nil {
		t.Fatalf("lost grant never recovered: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("recovery took %v", elapsed)
	}
	// The ack-confirmed grant is reflected locally even though no
	// master-changed broadcast ever arrived.
	if c.Role() != RoleMaster {
		t.Fatal("granted client does not see itself as master")
	}
}

// TestRequestMasterHonoursPreCancelledContext: cancellation must bite
// during the initial request/ack exchange, not only in the wait loop.
func TestRequestMasterHonoursPreCancelledContext(t *testing.T) {
	_, dial := testSession(t, SessionConfig{})
	dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := o.RequestMaster(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RequestMaster = %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled request blocked for %v", elapsed)
	}
}

// TestFloorStatsAndPolicyParsing covers the small observable surfaces.
func TestFloorStatsAndPolicyParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FloorPolicy
		ok   bool
	}{
		{"", FloorFIFO, true}, {"fifo", FloorFIFO, true},
		{"priority", FloorPriority, true}, {"steal", FloorSteal, true},
		{"anarchy", FloorFIFO, false},
	} {
		got, err := ParseFloorPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseFloorPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for p, want := range map[FloorPolicy]string{FloorFIFO: "fifo", FloorPriority: "priority", FloorSteal: "steal"} {
		if p.String() != want {
			t.Fatalf("policy %d prints %q", p, p.String())
		}
	}
	reasons := map[FloorReason]string{
		FloorGranted: "granted", FloorHandoff: "handoff", FloorPromoted: "promoted",
		FloorExpired: "expired", FloorStolen: "stolen", FloorReleased: "released",
		FloorVacated: "vacated", FloorReason(0): "unknown",
	}
	for r, want := range reasons {
		if r.String() != want {
			t.Fatalf("reason %d prints %q", r, r.String())
		}
	}
}

// TestAttachGrantReachesWatchers: a client that attaches asking for a free
// floor is granted it at attach, and the clients already attached must hear
// about it like any other grant — not keep reading the floor as vacated.
func TestAttachGrantReachesWatchers(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	first := dial(AttachOptions{Name: "first"})
	viewer := dial(AttachOptions{Name: "viewer"})
	first.Close()
	waitFor(t, "floor vacated", func() bool { return viewer.FloorReason() == FloorVacated })

	newcomer := dial(AttachOptions{Name: "newcomer", WantMaster: true})
	if newcomer.Role() != RoleMaster || s.Master() != "newcomer" {
		t.Fatalf("newcomer role %v, session master %q", newcomer.Role(), s.Master())
	}
	waitFor(t, "viewer to see the attach grant", func() bool {
		return viewer.Master() == "newcomer" && viewer.FloorReason() == FloorGranted
	})
}
