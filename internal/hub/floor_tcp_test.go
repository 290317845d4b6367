package hub

// End-to-end floor-control coverage over real TCP sockets: the
// request/grant/deny/steal/lease-expiry scenarios of
// internal/core/floor_test.go, re-run through the full production path —
// Hub.Serve accept loop, handshake routing, shard lookup, writer pools —
// instead of net.Pipe. What these add over the core tests is the claim that
// floor arbitration survives the hub's batched, pooled delivery machinery:
// grants arrive as broadcasts drained by a shared writer pool, and denial
// acks interleave with sample traffic on real sockets.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// floorHub spins a hub with one session under the given floor config and
// returns the hub, its address and the session name.
func floorHub(t *testing.T, cfg core.SessionConfig) (*Hub, string, string) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "floor-e2e"
	}
	h, addr := testHub(t, Config{Shards: 2})
	if _, err := h.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	return h, addr, cfg.Name
}

// TestTCPFloorQueuedThenGranted: a contested blocking request over TCP
// queues, and the holder's release passes the floor to the waiter.
func TestTCPFloorQueuedThenGranted(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{FloorPolicy: core.FloorFIFO})
	m := dialSession(t, addr, core.AttachOptions{Name: "m", Session: name, WantMaster: true})
	o := dialSession(t, addr, core.AttachOptions{Name: "o", Session: name})

	granted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		granted <- o.RequestMaster(ctx)
	}()
	waitFor(t, "request queued", func() bool {
		st, ok := sessionFloor(h, name)
		return ok && st.Pending == 1
	})

	if err := m.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-granted; err != nil {
		t.Fatalf("queued request not granted: %v", err)
	}
	waitFor(t, "grant visible on both clients", func() bool {
		return o.Role() == core.RoleMaster && m.Master() == "o"
	})
	st, _ := sessionFloor(h, name)
	if st.Master != "o" || st.Pending != 0 || st.Releases != 1 {
		t.Fatalf("floor stats = %+v", st)
	}
}

// TestTCPFloorNoWaitDenial: TryRequestMaster against a held floor is an
// explicit prompt denial naming the holder — never a queue entry.
func TestTCPFloorNoWaitDenial(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{FloorPolicy: core.FloorFIFO})
	dialSession(t, addr, core.AttachOptions{Name: "m", Session: name, WantMaster: true})
	o := dialSession(t, addr, core.AttachOptions{Name: "o", Session: name})

	err := o.TryRequestMaster(2 * time.Second)
	if !errors.Is(err, core.ErrFloorHeld) {
		t.Fatalf("no-wait request = %v, want ErrFloorHeld", err)
	}
	st, _ := sessionFloor(h, name)
	if st.Denials != 1 || st.Pending != 0 || st.Master != "m" {
		t.Fatalf("floor stats after denial = %+v", st)
	}
	// The denial also shows in the hub-level aggregate the load harness
	// reads.
	if hs := h.Stats(); hs.Floor.Denials != 1 {
		t.Fatalf("hub aggregate denials = %d, want 1", hs.Floor.Denials)
	}
}

// TestTCPFloorCancelWithdrawsRequest: cancelling a blocked RequestMaster
// withdraws the queued entry, and a later release bypasses the withdrawn
// waiter.
func TestTCPFloorCancelWithdrawsRequest(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{FloorPolicy: core.FloorFIFO})
	m := dialSession(t, addr, core.AttachOptions{Name: "m", Session: name, WantMaster: true})
	o := dialSession(t, addr, core.AttachOptions{Name: "o", Session: name})

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- o.RequestMaster(ctx) }()
	waitFor(t, "request queued", func() bool {
		st, ok := sessionFloor(h, name)
		return ok && st.Pending == 1
	})

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request = %v", err)
	}
	waitFor(t, "request withdrawn", func() bool {
		st, _ := sessionFloor(h, name)
		return st.Pending == 0
	})

	if err := m.ReleaseMaster(time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "floor free", func() bool {
		st, _ := sessionFloor(h, name)
		return st.Master == ""
	})
	if o.Role() == core.RoleMaster {
		t.Fatal("withdrawn request was granted")
	}
}

// TestTCPFloorFIFOOrder: three contenders over real sockets are granted
// strictly in arrival order as the floor is passed down the line.
func TestTCPFloorFIFOOrder(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{FloorPolicy: core.FloorFIFO})
	m := dialSession(t, addr, core.AttachOptions{Name: "holder", Session: name, WantMaster: true})

	const n = 3
	waiters := make([]*core.Client, n)
	grants := make([]chan error, n)
	order := make(chan string, n)
	for i := 0; i < n; i++ {
		waiters[i] = dialSession(t, addr, core.AttachOptions{
			Name: fmt.Sprintf("w%d", i), Session: name,
		})
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
		waitFor(t, "request queued", func() bool {
			st, ok := sessionFloor(h, name)
			return ok && st.Pending == i+1
		})
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
}

// TestTCPFloorPriorityOrder: under the priority policy, grants follow
// attach priority (descending), arrival breaking ties.
func TestTCPFloorPriorityOrder(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{FloorPolicy: core.FloorPriority})
	m := dialSession(t, addr, core.AttachOptions{Name: "holder", Session: name, WantMaster: true})

	specs := []struct {
		name     string
		priority int64
	}{{"low", 1}, {"high", 9}, {"mid", 5}, {"high2", 9}}
	want := []string{"high", "high2", "mid", "low"}

	order := make(chan string, len(specs))
	clients := map[string]*core.Client{}
	for i, sp := range specs {
		c := dialSession(t, addr, core.AttachOptions{
			Name: sp.name, Session: name, Priority: sp.priority,
		})
		clients[sp.name] = c
		go func(c *core.Client) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.RequestMaster(ctx); err == nil {
				order <- c.Name()
			}
		}(c)
		waitFor(t, "request queued", func() bool {
			st, ok := sessionFloor(h, name)
			return ok && st.Pending == i+1
		})
	}

	prev := m
	for _, wname := range want {
		if err := prev.ReleaseMaster(time.Second); err != nil {
			t.Fatal(err)
		}
		if got := <-order; got != wname {
			t.Fatalf("grant went to %q, want %q", got, wname)
		}
		prev = clients[wname]
	}
}

// TestTCPFloorStealPolicyGate: administrative preemption succeeds under the
// steal policy and is an explicit ErrFloorHeld denial under FIFO — each
// session keeping its own policy on one shared hub.
func TestTCPFloorStealPolicyGate(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 2})
	for sess, policy := range map[string]core.FloorPolicy{
		"steal-sess": core.FloorSteal,
		"fifo-sess":  core.FloorFIFO,
	} {
		if _, err := h.CreateSession(core.SessionConfig{Name: sess, FloorPolicy: policy}); err != nil {
			t.Fatal(err)
		}
	}

	m := dialSession(t, addr, core.AttachOptions{Name: "m", Session: "steal-sess", WantMaster: true})
	admin := dialSession(t, addr, core.AttachOptions{Name: "admin", Session: "steal-sess"})
	if err := admin.StealMaster(time.Second); err != nil {
		t.Fatalf("steal under steal policy: %v", err)
	}
	waitFor(t, "steal visible", func() bool {
		return m.Master() == "admin" && m.FloorReason() == core.FloorStolen
	})
	if st, _ := sessionFloor(h, "steal-sess"); st.Steals != 1 || st.Master != "admin" {
		t.Fatalf("steal stats = %+v", st)
	}

	dialSession(t, addr, core.AttachOptions{Name: "m", Session: "fifo-sess", WantMaster: true})
	thief := dialSession(t, addr, core.AttachOptions{Name: "thief", Session: "fifo-sess"})
	if err := thief.StealMaster(time.Second); !errors.Is(err, core.ErrFloorHeld) {
		t.Fatalf("steal under fifo = %v, want ErrFloorHeld", err)
	}
	if st, _ := sessionFloor(h, "fifo-sess"); st.Denials != 1 || st.Steals != 0 || st.Master != "m" {
		t.Fatalf("fifo steal stats = %+v", st)
	}
}

// TestTCPFloorLeaseExpiry: a master that goes silent on a real socket —
// heartbeats disabled, no requests — loses the floor within 1.25× the
// lease, and the queued contender is promoted with the expiry reason.
func TestTCPFloorLeaseExpiry(t *testing.T) {
	h, addr, name := floorHub(t, core.SessionConfig{
		FloorPolicy: core.FloorFIFO, MasterLease: 75 * time.Millisecond,
	})
	// HeartbeatInterval < 0 simulates the wedged master: attached, silent.
	wedged := dialSession(t, addr, core.AttachOptions{
		Name: "wedged", Session: name, WantMaster: true, HeartbeatInterval: -1,
	})
	o := dialSession(t, addr, core.AttachOptions{Name: "o", Session: name})

	granted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		granted <- o.RequestMaster(ctx)
	}()
	if err := <-granted; err != nil {
		t.Fatalf("promotion after lease expiry: %v", err)
	}
	waitFor(t, "expiry visible", func() bool {
		st, _ := sessionFloor(h, name)
		return st.Master == "o" && st.Expiries >= 1
	})
	// The wedged client wakes to find it lost the floor.
	wctx, wcancel := context.WithTimeout(context.Background(), time.Second)
	defer wcancel()
	if err := wedged.PauseContext(wctx); !errors.Is(err, core.ErrNotMaster) {
		t.Fatalf("woken ex-master pause = %v, want ErrNotMaster", err)
	}
	if hs := h.Stats(); hs.Floor.Expiries == 0 {
		t.Fatal("hub aggregate missed the lease expiry")
	}
}
