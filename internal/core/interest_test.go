// Interest management and delivery tiers (DESIGN.md §4.3): subscription
// filtering on the broadcast paths, runtime subscribe/unsubscribe, the
// observer tier's relayed delivery, and replay policies.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSessionAddr is testSession for tests that also need the raw listener
// address (handcrafted-protocol clients, expected attach failures).
func testSessionAddr(t *testing.T, cfg SessionConfig) (*Session, string) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "interest-session"
	}
	s := NewSession(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr().String()
}

func dialOpts(t *testing.T, addr string, opts AttachOptions) *Client {
	t.Helper()
	c, err := Dial(context.Background(), addr, opts)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func chanSample(step int64, names ...string) *Sample {
	s := NewSample(step)
	for _, n := range names {
		s.Channels[n] = Scalar(float64(step))
	}
	return s
}

// drainCount consumes everything currently buffered on c.Samples() and
// returns how many samples carried the named channel.
func drainCount(c *Client, channel string) int {
	n := 0
	for {
		select {
		case s := <-c.Samples():
			if s != nil {
				if _, ok := s.Channels[channel]; ok {
					n++
				}
			}
		default:
			return n
		}
	}
}

// TestSubscriptionFiltering is the tentpole's core delivery property: a
// sample reaches exactly the clients whose interest set matches one of its
// channels, attach-time and runtime subscriptions agree, and flagSubAll
// restores subscribe-all.
func TestSubscriptionFiltering(t *testing.T) {
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app"})
	st := s.Steered()

	phi := dialOpts(t, addr, AttachOptions{
		Name: "phi-viewer", Subscriptions: []Subscription{ChannelSub("phi")},
	})
	ghost := dialOpts(t, addr, AttachOptions{
		Name: "ghost-viewer", Subscriptions: []Subscription{ChannelSub("ghost")},
	})
	all := dialOpts(t, addr, AttachOptions{Name: "all-viewer"})

	st.Emit(chanSample(1, "phi", "seg"))
	// drainCount consumes, so keep each client's tally across polls: a poll
	// that drains phi's sample before all's has arrived must not lose it.
	var phiSeen, allSeen int
	waitFor(t, "subscribed clients see step 1", func() bool {
		phiSeen += drainCount(phi, "phi")
		allSeen += drainCount(all, "phi")
		return phiSeen > 0 && allSeen > 0
	})
	if got := drainCount(ghost, "phi"); got != 0 {
		t.Fatalf("ghost-subscribed client received %d phi samples, want 0", got)
	}
	if s.Stats().FramesFiltered == 0 {
		t.Fatal("no frames filtered despite a non-matching subscription")
	}

	// Runtime subscribe widens ghost's set; the next emission reaches it.
	ctx := context.Background()
	if err := ghost.Subscribe(ctx, ChannelSub("phi")); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	st.Emit(chanSample(2, "phi"))
	waitFor(t, "ghost sees step 2 after subscribing", func() bool {
		return drainCount(ghost, "phi") > 0
	})
	// phi was still subscribed for step 2 — drain it before narrowing so the
	// step-3 check below sees only post-unsubscribe traffic.
	waitFor(t, "phi sees step 2", func() bool { return drainCount(phi, "phi") > 0 })

	// Unsubscribe with no selectors clears the interest set entirely.
	if err := phi.Unsubscribe(ctx); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	st.Emit(chanSample(3, "phi"))
	waitFor(t, "ghost sees step 3", func() bool { return drainCount(ghost, "phi") > 0 })
	if got := drainCount(phi, "phi"); got != 0 {
		t.Fatalf("cleared client received %d samples, want 0", got)
	}

	// SubscribeAll resets to everything.
	if err := phi.SubscribeAll(ctx); err != nil {
		t.Fatalf("subscribe-all: %v", err)
	}
	st.Emit(chanSample(4, "other"))
	waitFor(t, "reset client sees step 4", func() bool { return drainCount(phi, "other") > 0 })
}

// TestParamSubscriptionFiltering covers the parameter-update side of the
// interest filter: a ParamSub narrows param delivery to the named set while
// leaving channel delivery alone, and unknown parameter names are rejected
// at both attach and subscribe time.
func TestParamSubscriptionFiltering(t *testing.T) {
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app"})
	st := s.Steered()
	for _, name := range []string{"alpha", "beta"} {
		if err := st.RegisterFloat(name, 0, 0, 100, "", func(float64) {}); err != nil {
			t.Fatal(err)
		}
	}

	master := dialOpts(t, addr, AttachOptions{Name: "m", WantMaster: true})
	narrow := dialOpts(t, addr, AttachOptions{
		Name: "narrow", Subscriptions: []Subscription{ParamSub("alpha")},
	})
	wide := dialOpts(t, addr, AttachOptions{Name: "wide"})

	set := func(name string, v float64) {
		t.Helper()
		if err := master.SetParamContext(testCtx(t), name, v); err != nil {
			t.Fatal(err)
		}
		st.Poll() // apply and broadcast the update
	}
	set("alpha", 7)
	waitFor(t, "both see alpha=7", func() bool {
		a, _ := narrow.Param("alpha")
		b, _ := wide.Param("alpha")
		return a.Value == FloatValue(7) && b.Value == FloatValue(7)
	})
	set("beta", 9)
	waitFor(t, "wide sees beta=9", func() bool {
		b, _ := wide.Param("beta")
		return b.Value == FloatValue(9)
	})
	if p, _ := narrow.Param("beta"); p.Value == FloatValue(9) {
		t.Fatal("param-narrowed client received a filtered beta update")
	}

	// Unknown parameter names are rejected symmetrically.
	if err := narrow.Subscribe(context.Background(), ParamSub("gamma")); !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("subscribe unknown param: err = %v, want ErrUnknownParam", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Attach(conn, AttachOptions{
		Name: "bad", Subscriptions: []Subscription{ParamSub("gamma")},
	})
	if !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("attach with unknown param sub: err = %v, want ErrUnknownParam", err)
	}
}

// TestWelcomeRoundsObserverIntervalUp: the welcome advertises a positive
// observer interval in whole milliseconds rounded up, so a sub-millisecond
// one does not read back as "every observer frame flushes at once".
func TestWelcomeRoundsObserverIntervalUp(t *testing.T) {
	for _, tc := range []struct {
		set  time.Duration
		want int64
	}{
		{500 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{-time.Millisecond, -1},
	} {
		if got := observerMillis(tc.set); got != tc.want {
			t.Errorf("observerMillis(%v) = %d, want %d", tc.set, got, tc.want)
		}
	}
	_, addr := testSessionAddr(t, SessionConfig{AppName: "app", ObserverInterval: 500 * time.Microsecond})
	obs := dialOpts(t, addr, AttachOptions{Name: "obs", Tier: TierObserver})
	if got := obs.ObserverInterval(); got != time.Millisecond {
		t.Errorf("interval 500µs advertised as %v, want 1ms", got)
	}
}

// TestObserverTierDelivery: an observer-tier client receives its subscribed
// stream through the relay workers (coalesced on the configured interval),
// the welcome advertises tier and interval, and TierCounts tracks the
// split.
func TestObserverTierDelivery(t *testing.T) {
	s, addr := testSessionAddr(t, SessionConfig{
		AppName: "app", ObserverInterval: 5 * time.Millisecond,
	})
	st := s.Steered()

	steerer := dialOpts(t, addr, AttachOptions{Name: "steer"})
	obs := dialOpts(t, addr, AttachOptions{
		Name: "obs", Tier: TierObserver,
		Subscriptions: []Subscription{ChannelSub("phi")},
	})
	if got := obs.Tier(); got != TierObserver {
		t.Fatalf("observer tier = %v, want TierObserver", got)
	}
	if got := obs.ObserverInterval(); got != 5*time.Millisecond {
		t.Fatalf("observer interval = %v, want 5ms", got)
	}
	if got := steerer.Tier(); got != TierSteering {
		t.Fatalf("steerer tier = %v, want TierSteering", got)
	}
	waitFor(t, "tier views", func() bool {
		steer, observers := s.TierCounts()
		return steer == 1 && observers == 1
	})

	st.Emit(chanSample(1, "phi"))
	waitFor(t, "observer sees phi", func() bool { return drainCount(obs, "phi") > 0 })
	st.Emit(chanSample(2, "other"))
	waitFor(t, "steerer sees other", func() bool { return drainCount(steerer, "other") > 0 })
	if got := drainCount(obs, "other"); got != 0 {
		t.Fatalf("observer received %d non-subscribed samples, want 0", got)
	}
	if stats := s.Stats(); stats.RelayPublished == 0 {
		t.Fatal("no relay publishes despite an observer-tier client")
	}
}

// TestReplayPolicy: ReplayNone skips the journal catch-up entirely and
// ReplayEvents skips the sample class, while ReplayAll (the default)
// replays both.
func TestReplayPolicy(t *testing.T) {
	sink := &memSink{}
	s, addr := testSessionAddr(t, SessionConfig{AppName: "app", Journal: sink})
	st := s.Steered()
	st.Event("history")
	st.Emit(chanSample(1, "phi"))

	check := func(name string, policy ReplayPolicy, wantEvents, wantSamples bool) {
		t.Helper()
		c := dialOpts(t, addr, AttachOptions{Name: name, ReplayPolicy: policy})
		if wantEvents {
			waitFor(t, name+" replayed events", func() bool { return len(c.Events()) == 1 })
		}
		if wantSamples {
			waitFor(t, name+" replayed sample", func() bool { return drainCount(c, "phi") > 0 })
			return
		}
		// Absence: give the (would-be) replay a moment to land, then check.
		time.Sleep(50 * time.Millisecond)
		if !wantEvents && len(c.Events()) != 0 {
			t.Fatalf("%s: events replayed despite policy %v: %q", name, policy, c.Events())
		}
		if got := drainCount(c, "phi"); got != 0 {
			t.Fatalf("%s: %d samples replayed despite policy %v", name, got, policy)
		}
	}
	check("all", ReplayAll, true, true)
	check("events", ReplayEvents, true, false)
	check("none", ReplayNone, false, false)
}

// TestSubscriptionChurn exercises the interest machinery under the
// conditions it was built for — clients attaching, re-subscribing and
// detaching while the broadcast stream runs — and is most valuable under
// -race: the immutable-descriptor swap and the RCU tier views must keep
// every access safe with zero locks on the delivery paths.
func TestSubscriptionChurn(t *testing.T) {
	s, addr := testSessionAddr(t, SessionConfig{
		AppName: "app", ObserverInterval: -1, // immediate observer flush
	})
	st := s.Steered()
	if err := st.RegisterFloat("alpha", 0, 0, 100, "", func(float64) {}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var emitted atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the broadcast load the churn runs under
		defer wg.Done()
		step := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
				step++
				st.Emit(chanSample(step, "phi", "seg"))
				emitted.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// A steady subscriber that must keep receiving throughout the churn.
	steady := dialOpts(t, addr, AttachOptions{
		Name: "steady", Subscriptions: []Subscription{ChannelSub("phi")},
	})

	const churners = 6
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			ctx := context.Background()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				tier := TierSteering
				if i%2 == 0 {
					tier = TierObserver
				}
				c, err := Dial(ctx, addr, AttachOptions{
					Name: fmt.Sprintf("churn-%d-%d", i, round),
					Tier: tier,
					Subscriptions: []Subscription{
						ChannelSub([]string{"phi", "seg", "ghost"}[rng.Intn(3)]),
					},
				})
				if err != nil {
					continue // accept races with shutdown
				}
				// A few interest mutations while attached, consuming
				// whatever arrives in between.
				for k := 0; k < 3; k++ {
					switch rng.Intn(4) {
					case 0:
						c.Subscribe(ctx, ChannelSub("phi"), ParamSub("alpha"))
					case 1:
						c.Unsubscribe(ctx, ChannelSub("phi"))
					case 2:
						c.SubscribeAll(ctx)
					case 3:
						c.Unsubscribe(ctx)
					}
					drainCount(c, "phi")
					time.Sleep(time.Millisecond)
				}
				c.Close()
			}
		}(i)
	}

	received := 0
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		received += drainCount(steady, "phi")
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if received == 0 {
		t.Fatal("steady subscriber received nothing during churn")
	}
	stats := s.Stats()
	if stats.SamplesEmitted == 0 || stats.FramesFiltered == 0 {
		t.Fatalf("churn produced no filtering: %+v", stats)
	}
	waitFor(t, "churners detached", func() bool { return s.ClientCount() == 1 })
}
