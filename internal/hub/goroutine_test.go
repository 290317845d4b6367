package hub

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// recordConn keeps a copy of everything read from the wrapped conn.
type recordConn struct {
	net.Conn
	got bytes.Buffer
}

func (c *recordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

// attachFrame captures the bytes core.Attach sends for opts, so a test can
// replay them from a raw connection that runs no client goroutines.
func attachFrame(t *testing.T, opts core.AttachOptions) []byte {
	t.Helper()
	srv, cli := net.Pipe()
	rec := &recordConn{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.Attach(cli, opts) // fails on the rejection below
		cli.Close()
	}()
	pc, err := core.AcceptConn(rec)
	if err != nil {
		t.Fatal(err)
	}
	pc.Reject("captured")
	<-done
	return rec.got.Bytes()
}

// TestClientCostsOneGoroutine bounds what an attached client costs its
// session: its read loop, nothing more — in a hub the goroutine that read
// the attach frame runs it; the writers are a fixed pool per session
// (bare) or per shard (hub), and a dead client's conn is closed by whoever
// declares it dead, not by a watcher goroutine. The clients attach
// by hand from raw sockets, so every goroutine counted is the server's.
func TestClientCostsOneGoroutine(t *testing.T) {
	const (
		clients = 32
		writers = 4 // core's WriterPool shape
		slack   = 7 // accept loops, listener and Done watchers
	)
	// Unnamed: the session names each client, so one frame serves them all.
	frame := attachFrame(t, core.AttachOptions{})

	for _, tc := range []struct {
		name  string
		serve func(t *testing.T, l net.Listener) (sess *core.Session, stop func())
	}{
		{"bare", func(t *testing.T, l net.Listener) (*core.Session, func()) {
			sess := core.NewSession(core.SessionConfig{Name: "bare"})
			go sess.Serve(l)
			return sess, sess.Close
		}},
		{"hub", func(t *testing.T, l net.Listener) (*core.Session, func()) {
			h := New(Config{Shards: 1})
			sess, err := h.CreateSession(core.SessionConfig{Name: "hosted"})
			if err != nil {
				t.Fatal(err)
			}
			go h.Serve(l)
			return sess, h.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sess, stop := tc.serve(t, l)
			stopped := false
			defer func() {
				if !stopped {
					stop()
				}
			}()
			for i := 0; i < clients; i++ {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				// The first welcome byte: this client is admitted and served.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Read(make([]byte, 1)); err != nil {
					t.Fatalf("client %d welcome: %v", i, err)
				}
			}
			waitFor(t, "every client admitted", func() bool { return sess.ClientCount() == clients })

			bound := clients + writers + slack
			grown := runtime.NumGoroutine() - base
			for deadline := time.Now().Add(time.Second); grown > bound && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
				grown = runtime.NumGoroutine() - base
			}
			if grown > bound {
				t.Fatalf("%d clients grew the goroutine count by %d, want at most %d (one per client + %d writers + %d)",
					clients, grown, bound, writers, slack)
			}
			t.Logf("%d clients grew the goroutine count by %d", clients, grown)

			stop()
			stopped = true
			waitFor(t, "goroutines back to the baseline", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestClientHeapBudget bounds what an attached observer costs its hub in
// live heap: its session state, its codec and the read side of its
// connection. The read side is one read buffer that fixed-size payloads
// decode from in place, so no per-client copy buffer may come back.
func TestClientHeapBudget(t *testing.T) {
	const (
		clients = 64
		budget  = 24 << 10 // bytes of live heap per client
	)
	frame := attachFrame(t, core.AttachOptions{Tier: core.TierObserver})

	h := New(Config{Shards: 1})
	defer h.Close()
	sess, err := h.CreateSession(core.SessionConfig{Name: "watched"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	conns := make([]net.Conn, 0, clients)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != nil {
			t.Fatalf("client %d welcome: %v", i, err)
		}
	}
	waitFor(t, "every client admitted", func() bool { return sess.ClientCount() == clients })

	grown := int64(heap()) - int64(base)
	per := grown / clients
	if per > budget {
		t.Fatalf("%d observers grew the live heap by %d bytes, %d per client, want at most %d", clients, grown, per, budget)
	}
	t.Logf("%d observers grew the live heap by %d bytes, %d per client", clients, grown, per)
}
