// Hub scaling benchmarks (experiment H1, see DESIGN.md §9 and
// EXPERIMENTS.md): throughput of the sharded multi-session hub's batched
// sample fan-out. One benchmark op emits one sample in every hosted session;
// under protocol v2 the sample is serialized once per emission and the
// fan-out work per op is sessions × clients queued buffer handoffs,
// coalesced into batched writes by the per-shard writer pools.
// Delivered/dropped ratios are reported so the drop-on-slow-client policy
// is visible next to the timing. BenchmarkProtocolCodec/-Fanout in
// internal/core isolate the codec and encode-once costs themselves.
package main

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/hub"
)

// benchFanout runs the hub at a given shape and measures emission with the
// full fan-out machinery live.
func benchFanout(b *testing.B, sessions, clientsPer, shards int) {
	h := hub.New(hub.Config{Shards: shards})
	defer h.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go h.Serve(l)

	steered := make([]*core.Steered, sessions)
	for i := range steered {
		sess, err := h.CreateSession(core.SessionConfig{
			Name: fmt.Sprintf("bench-%03d", i), AppName: "bench", SampleQueue: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		steered[i] = sess.Steered()
	}
	// Clients drain through their own read loops; the client-side sample
	// queue evicts oldest, so no consumer goroutines are needed.
	clients := make([]*core.Client, 0, sessions*clientsPer)
	for i := 0; i < sessions; i++ {
		for j := 0; j < clientsPer; j++ {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.Attach(conn, core.AttachOptions{
				Name:    fmt.Sprintf("c-%03d-%03d", i, j),
				Session: fmt.Sprintf("bench-%03d", i),
			})
			if err != nil {
				b.Fatal(err)
			}
			clients = append(clients, c)
		}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	samples := make([]*core.Sample, sessions)
	for i := range samples {
		s := core.NewSample(0)
		s.Channels["x"] = core.Scalar(float64(i))
		samples[i] = s
	}

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, st := range steered {
			samples[i].Step = int64(n)
			st.Emit(samples[i])
		}
	}
	b.StopTimer()

	st := h.Stats()
	fanout := float64(st.SamplesEmitted) * float64(clientsPer)
	if fanout > 0 {
		b.ReportMetric(float64(st.SamplesDelivered)/fanout, "delivered_frac")
		b.ReportMetric(float64(st.SamplesDropped)/fanout, "dropped_frac")
	}
	b.ReportMetric(float64(sessions*clientsPer), "clients")
}

// BenchmarkHubFanout sweeps hub shapes up to the target scale of 16 sessions
// × 16 clients each. ns/op is the cost of emitting one sample in every
// session; multiply by clients for queued-write fan-out per op.
func BenchmarkHubFanout(b *testing.B) {
	for _, shape := range []struct{ sessions, clients, shards int }{
		{1, 16, 1},
		{4, 4, 4},
		{16, 16, 8},
	} {
		b.Run(fmt.Sprintf("%dx%d", shape.sessions, shape.clients), func(b *testing.B) {
			benchFanout(b, shape.sessions, shape.clients, shape.shards)
		})
	}
}

// BenchmarkSessionFanoutBaseline is the unhubbed comparison: one
// core.Session serving 16 clients through the writer pool it owns — the
// same pool shape a hub shard shares across its sessions. The hub's 1x16
// case should be in the same regime; its 16x16 case is the load a single
// session cannot host at all (one listener, one registry, no shards).
func BenchmarkSessionFanoutBaseline(b *testing.B) {
	sess := core.NewSession(core.SessionConfig{Name: "baseline", SampleQueue: 64})
	defer sess.Close()
	st := sess.Steered()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go sess.Serve(l)
	clients := make([]*core.Client, 16)
	for i := range clients {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if clients[i], err = core.Attach(conn, core.AttachOptions{Name: fmt.Sprintf("c%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	s := core.NewSample(0)
	s.Channels["x"] = core.Scalar(1)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Step = int64(n)
		st.Emit(s)
	}
}
