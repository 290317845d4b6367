package hub

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSilentDialerCannotWedgeShard is the ISSUE 6 hardening regression: a
// flood of connections that never send their attach frame must not wedge
// the accept path. With MaxHandshakes slots all held by silent dialers the
// hub sheds the overflow immediately, a legitimate client gets through as
// soon as HandshakeTimeout reclaims a slot, and the accept-path counters
// account for every connection.
func TestSilentDialerCannotWedgeShard(t *testing.T) {
	h, addr := testHub(t, Config{
		Shards:           1,
		HandshakeTimeout: 200 * time.Millisecond,
		MaxHandshakes:    4,
	})
	if _, err := h.CreateSession(core.SessionConfig{Name: "victim"}); err != nil {
		t.Fatal(err)
	}

	// Saturate every handshake slot, then keep pouring connections on: the
	// overflow must be shed (closed), not queued.
	const silent = 12
	conns := make([]net.Conn, 0, silent)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < silent; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	waitFor(t, "overflow connections to be shed", func() bool {
		return h.Stats().ConnsShed > 0
	})

	// A real client retried through the flood must attach well within a few
	// handshake windows — shed now, admitted once the silent dialers time
	// out and free their slots.
	deadline := time.Now().Add(5 * time.Second)
	var cl *core.Client
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cl, err = core.Attach(conn, core.AttachOptions{Session: "victim", Timeout: time.Second})
		if err == nil {
			break
		}
		cl = nil
		time.Sleep(20 * time.Millisecond)
	}
	if cl == nil {
		t.Fatal("legitimate client never got through the silent-dialer flood")
	}
	defer cl.Close()
	if cl.SessionName() != "victim" {
		t.Fatalf("attached to %q, want victim", cl.SessionName())
	}

	// Every silent connection ends accounted for: shed at accept, or it won
	// a handshake slot and HandshakeTimeout failed it.
	waitFor(t, "silent connections to be shed or timed out", func() bool {
		st := h.Stats()
		return st.ConnsShed+st.HandshakeFails >= silent
	})
	st := h.Stats()
	if st.ConnsAccepted == 0 || st.ConnsShed == 0 {
		t.Fatalf("accept-path counters flat: %+v", st)
	}
}

// TestServedClientHoldsNoHandshakeSlot pins where the handshake slot is
// freed: right after the attach frame is read, before the connection is
// served. A served client that kept its slot would shed every client past
// the first MaxHandshakes.
func TestServedClientHoldsNoHandshakeSlot(t *testing.T) {
	h, addr := testHub(t, Config{Shards: 1, MaxHandshakes: 2})
	sess, err := h.CreateSession(core.SessionConfig{Name: "slots"})
	if err != nil {
		t.Fatal(err)
	}
	frame := attachFrame(t, core.AttachOptions{})
	for i := 0; i < 9; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != nil {
			t.Fatalf("client %d welcome: %v (shed %d)", i, err, h.Stats().ConnsShed)
		}
	}
	waitFor(t, "every client admitted", func() bool { return sess.ClientCount() == 9 })
	if shed := h.Stats().ConnsShed; shed != 0 {
		t.Fatalf("%d connections shed with 9 clients served one at a time, want 0", shed)
	}
}

// TestAttachRacingHubClose attaches clients while the hub shuts down: every
// connection must be answered — welcomed, rejected or closed — and none
// left open with nobody serving it.
func TestAttachRacingHubClose(t *testing.T) {
	const (
		iterations = 200
		attaches   = 8
	)
	frame := attachFrame(t, core.AttachOptions{})
	for it := 0; it < iterations; it++ {
		h := New(Config{Shards: 2})
		if _, err := h.CreateSession(core.SessionConfig{Name: "closing"}); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go h.Serve(l)

		start := make(chan struct{})
		errs := make(chan error, attaches)
		var wg sync.WaitGroup
		for i := 0; i < attaches; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					return // the listener is already closed
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(time.Second))
				if _, err := conn.Write(frame); err != nil {
					return // reset by the closing listener
				}
				// Read to the end: a welcome or reject, then the close.
				if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
					errs <- err
				}
			}()
		}
		close(start)
		// Close after a varying number of accepts, so the race point
		// walks from the listener through the handshake to the serve.
		for wait := time.Now().Add(time.Second); h.statConnsAccepted.Load() < uint64(it%(attaches+1)) && time.Now().Before(wait); {
			runtime.Gosched()
		}
		h.Close()
		wg.Wait()
		close(errs)
		if n := len(errs); n > 0 {
			t.Fatalf("iteration %d: %d of %d attaches racing Close got no answer within 1s", it, n, attaches)
		}
	}
}

// flakyListener fails its first n Accepts with a temporary error, then
// delegates to the real listener: the EMFILE/ECONNABORTED shape Serve must
// ride out with backoff instead of returning.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	fail int
}

type tempErr struct{}

func (tempErr) Error() string   { return "synthetic temporary accept failure" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fail > 0 {
		l.fail--
		l.mu.Unlock()
		return nil, tempErr{}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptLoopBackoffOnTemporaryError proves Serve survives a burst of
// temporary accept errors and still serves the clients that follow.
func TestAcceptLoopBackoffOnTemporaryError(t *testing.T) {
	h := New(Config{Shards: 1})
	t.Cleanup(h.Close)
	if _, err := h.CreateSession(core.SessionConfig{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner, fail: 5}

	serveDone := make(chan error, 1)
	go func() { serveDone <- h.Serve(fl) }()

	cl := dialSession(t, inner.Addr().String(), core.AttachOptions{Session: "s"})
	if cl.SessionName() != "s" {
		t.Fatalf("attached to %q, want s", cl.SessionName())
	}
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned during temporary errors: %v", err)
	default:
	}

	fl.mu.Lock()
	remaining := fl.fail
	fl.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("Serve retried only %d of 5 temporary failures", 5-remaining)
	}

	// A permanent listener failure must still end Serve.
	h.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// TestServeReturnsOnPermanentError pins the non-temporary branch: a broken
// listener ends Serve with its error rather than spinning.
func TestServeReturnsOnPermanentError(t *testing.T) {
	h := New(Config{Shards: 1})
	t.Cleanup(h.Close)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inner.Close() // Accept now fails with a permanent ErrClosed
	if err := h.Serve(inner); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve = %v, want net.ErrClosed", err)
	}
}
