// Broadcast hot-path benchmarks (experiment H2, DESIGN.md §4.1): the
// steady-state cost of fanning one sample out to N clients with the pooled
// refcounted envelope buffers, RCU client snapshots and ring-buffer client
// queues. BenchmarkBroadcastHotPath must report ~0 allocs/op after warmup —
// the frame pool, the handle drain scratch and the stack-scratch sample
// encoder leave nothing per-op — and should scale with -cpu 1,4,16 (no
// session lock on the path). BenchmarkBroadcastContention is the 64
// sessions × 64 clients shape, emitters racing across every session.
package core

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// discardConn is a net.Conn whose writes vanish: the benchmarks measure
// encode + enqueue + drain, not a kernel socket.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return discardAddr{} }
func (discardConn) RemoteAddr() net.Addr               { return discardAddr{} }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

type discardAddr struct{}

func (discardAddr) Network() string { return "discard" }
func (discardAddr) String() string  { return "discard" }

// inlineWriter is a WriterScheduler that drains on the notifying goroutine:
// deterministic, no scheduler latency, and the drain cost lands inside the
// measured op. The edge trigger serialises drains per client exactly as
// WriterPool does.
type inlineWriter struct {
	batch int
}

func (w *inlineWriter) ClientReady(h *ClientHandle) {
	for h.markScheduled() {
		_, more, err := h.drainBatch(w.batch)
		h.clearScheduled()
		if err != nil || !more {
			return
		}
	}
}

// benchBroadcastSession builds a session with n admitted, welcomed clients
// on discard conns, drained inline.
func benchBroadcastSession(tb testing.TB, n int) (*Session, *Steered) {
	tb.Helper()
	s := NewSession(SessionConfig{
		Name: "hotpath", SampleQueue: 64,
		Writer: &inlineWriter{batch: 64},
	})
	for i := 0; i < n; i++ {
		cc, err := s.admit(&attachMsg{Name: fmt.Sprintf("c%03d", i)}, newCodec(discardConn{}))
		if err != nil {
			tb.Fatal(err)
		}
		cc.welcomed.Store(true)
	}
	return s, s.Steered()
}

func hotPathSample() *Sample {
	s := NewSample(1)
	s.Channels["phi"] = Channel{Dims: [3]int{8, 8, 4}, Data: make([]float64, 256)}
	s.Channels["seg"] = Scalar(0.7)
	return s
}

// BenchmarkBroadcastHotPath: one sample emission fanned to N clients,
// encode-once into a pooled buffer, ring enqueues, inline batched drain.
// Run with -benchmem (allocs/op must sit at ~0 after warmup) and
// -cpu 1,4,16 for the scaling story.
func BenchmarkBroadcastHotPath(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			s, st := benchBroadcastSession(b, n)
			defer s.Close()
			sample := hotPathSample()
			// Warm the frame pool and the drain scratch.
			for i := 0; i < 64; i++ {
				st.Emit(sample)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					st.Emit(sample)
				}
			})
		})
	}
}

// BenchmarkBroadcastContention is the many-session contention shape from
// the issue: 64 sessions × 64 clients, every benchmark goroutine emitting
// into all sessions round-robin. With RCU snapshots and atomic counters
// the only shared mutable state two emitters can meet on is a client ring.
func BenchmarkBroadcastContention(b *testing.B) {
	const sessions, clientsPer = 64, 64
	steered := make([]*Steered, sessions)
	for i := range steered {
		s, st := benchBroadcastSession(b, clientsPer)
		defer s.Close()
		steered[i] = st
		_ = s
	}
	sample := hotPathSample()
	for _, st := range steered {
		st.Emit(sample) // warm each session's pool path
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			steered[i%sessions].Emit(sample)
			i++
		}
	})
	b.StopTimer()
	var delivered, dropped uint64
	for _, st := range steered {
		stats := st.s.Stats()
		delivered += stats.SamplesDelivered
		dropped += stats.SamplesDropped
	}
	if total := delivered + dropped; total > 0 {
		b.ReportMetric(float64(delivered)/float64(total), "delivered_frac")
	}
}

// BenchmarkBroadcastContention1k is the collaboration-scaling shape two
// orders past the paper's handful of participants: a single session fanning
// every emission out to 1024 observers. One emitter per benchmark goroutine
// measures the pure fan-out cost — encode once, 1024 ring enqueues, inline
// batched drains — with no cross-session sharding to hide behind.
func BenchmarkBroadcastContention1k(b *testing.B) {
	const clients = 1024
	s, st := benchBroadcastSession(b, clients)
	defer s.Close()
	sample := hotPathSample()
	for i := 0; i < 16; i++ {
		st.Emit(sample) // warm the pool and every client's drain scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			st.Emit(sample)
		}
	})
	b.StopTimer()
	stats := s.Stats()
	if total := stats.SamplesDelivered + stats.SamplesDropped; total > 0 {
		b.ReportMetric(float64(stats.SamplesDelivered)/float64(total), "delivered_frac")
	}
}

// benchInterestSession builds a session with n admitted observers at the
// given tier: an interest fraction of them subscribed to the emitted "phi"
// channel, the rest to a channel that never appears. Admission goes through
// admitLocked with one snapshot rebuild at the end, so a 100k fleet costs
// O(n), not O(n²).
func benchInterestSession(tb testing.TB, n int, interest float64, tier Tier) (*Session, *Steered) {
	tb.Helper()
	s := NewSession(SessionConfig{
		Name: "interest", SampleQueue: 64,
		Writer:           &inlineWriter{batch: 64},
		ObserverInterval: -1, // flush immediately: no ticker noise under the benchmark
	})
	interested := int(float64(n) * interest)
	if interested < 1 {
		interested = 1
	}
	s.mu.Lock()
	for i := 0; i < n; i++ {
		subs := []Subscription{ChannelSub("phi")}
		if i >= interested {
			subs = []Subscription{ChannelSub("cold")}
		}
		cc, err := s.admitLocked(&attachMsg{
			Name: fmt.Sprintf("o%06d", i), Tier: tier, Subs: subs,
		}, newCodec(discardConn{}))
		if err != nil {
			s.mu.Unlock()
			tb.Fatal(err)
		}
		cc.welcomed.Store(true)
	}
	s.rebuildClientsLocked()
	s.mu.Unlock()
	return s, s.Steered()
}

// BenchmarkBroadcastInterest extends BenchmarkBroadcastContention1k across
// the interest-management tentpole: the same emission measured against a
// subscribe-all steering-tier audience (the session walks every ring
// inline — the pre-PR-8 shape) and against an observer-tier audience at 1%
// interest (the session hands the frame to the relay workers and moves on).
// The steering mode's ns/op grows linearly with the audience; the observer
// mode's must stay roughly flat — the session goroutine pays O(workers),
// not O(observers) — and both must hold 0 allocs/op. Every emission follows
// a steer epoch bump, so each frame is push-stamped: the costliest case for
// the relay workers.
func BenchmarkBroadcastInterest(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []struct {
			name     string
			tier     Tier
			interest float64
		}{
			{"steer-all", TierSteering, 1.0},
			{"obs-1pct", TierObserver, 0.01},
		} {
			b.Run(fmt.Sprintf("observers=%d/mode=%s", n, mode.name), func(b *testing.B) {
				s, st := benchInterestSession(b, n, mode.interest, mode.tier)
				defer s.Close()
				sample := hotPathSample()
				for i := 0; i < 32; i++ {
					st.Emit(sample) // warm the pool, the keys scratch and the rings
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.steerEpoch.Add(1)
					st.Emit(sample)
				}
			})
		}
	}
}

// TestBroadcastInterestAllocFree pins the observer-tier emission to the
// same zero-alloc invariant as the steering hot path: publishing a frame to
// the relay workers — interest keys included — must not allocate in steady
// state — also when a steer epoch bump between emissions makes every frame
// a pushed one. The warmup must exceed relayQueue: frames park in the
// worker's input ring until it is full, and only then does every further
// publish recycle an evicted frame through the pool.
func TestBroadcastInterestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts; zero-alloc holds only without -race")
	}
	s, st := benchInterestSession(t, 1024, 0.01, TierObserver)
	defer s.Close()
	sample := hotPathSample()
	emit := func() {
		s.steerEpoch.Add(1)
		st.Emit(sample)
	}
	for i := 0; i < 2*relayQueue; i++ {
		emit()
	}
	// Warm-up cannot pin the pool's size: the frames in flight peak at
	// relayQueue parked in the input rings plus a drained batch of as many
	// per worker, a worker descheduled mid-batch reaches that peak whenever
	// the scheduler says so, and AllocsPerRun's switch to GOMAXPROCS(1)
	// empties a sync.Pool besides. That growth is a one-time cost of a few
	// allocations per frame in flight, so measure over enough emissions that
	// it rounds to nothing while an allocation per emission still reads 1.
	inFlight := relayQueue * (1 + len(s.relay.Load().workers))
	avg := testing.AllocsPerRun(32*inFlight, emit)
	if avg > 0.1 {
		t.Fatalf("observer-tier broadcast allocates %.3f allocs/op, want ~0", avg)
	}
	waitFor(t, "a pushed flush from the relay workers", func() bool { return s.Stats().RelayPushed > 0 })
	if st.s.Stats().RelayPublished == 0 {
		t.Fatal("relay published nothing — observer fan-out never engaged")
	}
}

// TestBroadcastContention1kAllocFree extends the PR 4 zero-alloc invariant
// to the 1k-observer case: fan-out cost may scale with the audience, but
// allocation must not — the pooled buffers and ring queues hold at three
// orders of magnitude too.
func TestBroadcastContention1kAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts; zero-alloc holds only without -race")
	}
	s, st := benchBroadcastSession(t, 1024)
	defer s.Close()
	sample := hotPathSample()
	for i := 0; i < 32; i++ {
		st.Emit(sample)
	}
	avg := testing.AllocsPerRun(100, func() {
		st.Emit(sample)
	})
	if avg > 0.1 {
		t.Fatalf("1k-observer broadcast allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestBroadcastHotPathAllocFree enforces the tentpole claim as a test, not
// just a benchmark report: a steady-state sample broadcast to 4 clients —
// including its inline batched drain — performs (amortised) zero heap
// allocations. The small tolerance absorbs sync.Pool refills after the GC
// cycles AllocsPerRun forces.
func TestBroadcastHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts; zero-alloc holds only without -race")
	}
	s, st := benchBroadcastSession(t, 4)
	defer s.Close()
	sample := hotPathSample()
	for i := 0; i < 128; i++ {
		st.Emit(sample) // warm pool + scratch
	}
	avg := testing.AllocsPerRun(500, func() {
		st.Emit(sample)
	})
	if avg > 0.1 {
		t.Fatalf("broadcast hot path allocates %.3f allocs/op, want ~0", avg)
	}
}
