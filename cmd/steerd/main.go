// Command steerd hosts an OGSI-Lite grid-service container with steerable
// demonstration simulations: the standing infrastructure of the RealityGrid
// scenario (Figure 1/2). It runs Lattice-Boltzmann sessions on a sharded
// steering hub, exposes a registry, steering services and visualization
// services over HTTP, and serves every steering session over one TCP
// listener for full clients.
//
// Usage:
//
//	steerd [-http :8090] [-steer :8091] [-lattice 16] [-sessions 1] [-shards 0]
//	       [-journal-dir DIR] [-journal-fsync]
//	       [-floor-policy fifo|priority|steal] [-master-lease 10s]
//	       [-fanout-workers 0] [-observer-interval 25ms]
//
// With the default -sessions 1 the daemon behaves exactly like the classic
// single-session steerd: one session named "steerd-lb3d" that clients may
// attach to without naming it. With -sessions N the hub hosts
// steerd-lb3d-00 … steerd-lb3d-N-1, and clients select one with
// core.AttachOptions.Session.
//
// With -journal-dir every session keeps a durable journal of its broadcast
// stream under DIR/<session>: clients attaching mid-run replay the recorded
// event and sample history, and a restarted steerd pointed at the same DIR
// revives each session's parameter values, view and freshest sample before
// the first simulation step. -journal-fsync trades append throughput for
// fsync'd batches.
//
// -floor-policy selects how contested master requests are arbitrated (FIFO
// queue, attach-priority queue, or FIFO plus administrative steal), and
// -master-lease bounds how long a silent master keeps the floor: a wedged
// or partitioned steering client loses it within 1.25× the lease and the
// next queued requester is granted it. 0 disables lease expiry.
//
// -fanout-workers sizes the per-session observer-tier relay pool (0 picks
// min(4, GOMAXPROCS)) and -observer-interval sets the longest unprompted
// spacing between observer flushes: under a dense stream observers receive
// freshest-wins sample batches at most this often instead of every frame,
// while steer-caused frames are not held; a parameter update with no sample
// behind it reaches observers under the same limit (0 keeps the 25ms
// default, negative flushes every frame).
//
// Accepted connections keep Go's socket defaults: TCP_NODELAY on, 15s
// keep-alive, buffers sized by the kernel.
//
// Then, e.g.:
//
//	curl -s -X POST localhost:8090/services/steering/2 \
//	     -d '{"op":"steer","args":{"name":"miscibility-g","value":4.5}}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/ogsi"
	"repro/internal/sim/lb"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:8090", "OGSI hosting address")
	steerAddr := flag.String("steer", "127.0.0.1:8091", "steering hub address (all sessions)")
	lattice := flag.Int("lattice", 16, "LB lattice edge size")
	sessions := flag.Int("sessions", 1, "number of concurrent LB sessions to host")
	shards := flag.Int("shards", 0, "hub shard count (0 = auto)")
	journalDir := flag.String("journal-dir", "", "durable session journal directory (empty disables journaling)")
	journalFsync := flag.Bool("journal-fsync", false, "fsync batched journal flushes")
	floorPolicyFlag := flag.String("floor-policy", "fifo", "master floor arbitration: fifo, priority or steal")
	masterLease := flag.Duration("master-lease", 10*time.Second, "master lease; a master silent this long loses the floor (0 disables)")
	fanoutWorkers := flag.Int("fanout-workers", 0, "observer-tier relay workers per session (0 = auto, negative = 1)")
	observerInterval := flag.Duration("observer-interval", 0, "longest unprompted spacing between observer flushes; steer-caused frames are not held (0 = default 25ms, negative = flush every frame)")
	flag.Parse()
	if *sessions < 1 {
		log.Fatal("steerd: -sessions must be >= 1")
	}
	floorPolicy, err := core.ParseFloorPolicy(*floorPolicyFlag)
	if err != nil {
		log.Fatalf("steerd: %v", err)
	}

	h := hub.New(hub.Config{
		Shards: *shards, JournalDir: *journalDir, JournalFsync: *journalFsync,
		SessionDefaults: core.SessionConfig{
			FloorPolicy: floorPolicy, MasterLease: *masterLease,
			FanoutWorkers: *fanoutWorkers, ObserverInterval: *observerInterval,
		},
	})
	defer h.Close()
	hosting := ogsi.NewHosting()
	hosting.RegisterFactory("registry", ogsi.RegistryFactory)

	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		name := "steerd-lb3d"
		if *sessions > 1 {
			name = fmt.Sprintf("steerd-lb3d-%02d", i)
		}
		sim, err := lb.New(lb.Params{Nx: *lattice, Ny: *lattice, Nz: *lattice, Tau: 1, G: 0, Seed: int64(1 + i)})
		if err != nil {
			log.Fatal(err)
		}
		session, err := h.CreateSession(core.SessionConfig{Name: name, AppName: "lb3d"})
		if err != nil {
			log.Fatal(err)
		}
		// The lb adapter registers the steering surface — "miscibility-g",
		// "sample-stride", "run-label" — and owns the poll/step/sample loop.
		adapter, err := lb.NewSteered(session.Steered(), sim, lb.SteerConfig{Label: name})
		if err != nil {
			log.Fatal(err)
		}

		// Replay-on-restart: with a journal configured, a prior run's
		// recorded parameter values (the coupling, the stride, the label),
		// view and freshest sample are applied before the first step.
		// Recover mutes the journal tap, so run-label's event echo is not
		// re-journaled on every restart.
		if *journalDir != "" {
			if n, err := session.Recover(); err != nil {
				log.Printf("steerd: %s: journal replay: %v", name, err)
			} else if n > 0 {
				fmt.Printf("steerd: %s: revived %d journaled state frame(s)\n", name, n)
			}
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			// Closing on a steered stop is what lets the hub evict the
			// ended session and free its name.
			defer session.Close()
			adapter.Run()
		}()

		// Per-session grid services; the first session also keeps the
		// classic factory names so existing tooling works unchanged.
		steerFactory, vizFactory := "steering-"+name, "viz-"+name
		if i == 0 {
			steerFactory, vizFactory = "steering", "viz"
		}
		hosting.RegisterFactory(steerFactory, ogsi.SteeringFactory(session))
		hosting.RegisterFactory(vizFactory, ogsi.VizFactory(session))
	}

	sl, err := net.Listen("tcp", *steerAddr)
	if err != nil {
		log.Fatal(err)
	}
	go h.Serve(sl)

	hl, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatal(err)
	}
	hosting.BaseURL = "http://" + hl.Addr().String()
	go http.Serve(hl, hosting)

	client := &ogsi.Client{}
	registry, err := client.Create(hosting.BaseURL, "registry", nil)
	if err != nil {
		log.Fatal(err)
	}
	steerGSH, _ := client.Create(hosting.BaseURL, "steering", nil)
	vizGSH, _ := client.Create(hosting.BaseURL, "viz", nil)
	client.Register(registry, ogsi.Entry{GSH: steerGSH, Type: "SteeringService", Keywords: []string{"lb3d"}}, 0)
	client.Register(registry, ogsi.Entry{GSH: vizGSH, Type: "VizService", Keywords: []string{"lb3d"}}, 0)

	fmt.Printf("steerd: OGSI hosting %s\n", hosting.BaseURL)
	fmt.Printf("steerd: registry     %s\n", registry)
	fmt.Printf("steerd: steering     %s\n", steerGSH)
	fmt.Printf("steerd: viz          %s\n", vizGSH)
	fmt.Printf("steerd: steering hub %s hosting %d session(s) on %d shard(s) (attach with core.Attach)\n",
		sl.Addr(), *sessions, h.Stats().Shards)
	fmt.Printf("steerd: floor policy %v, master lease %v\n", floorPolicy, *masterLease)
	for _, name := range h.SessionNames() {
		fmt.Printf("steerd:   session %q on shard %d\n", name, h.ShardOf(name))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	stats := h.Stats()
	fmt.Printf("steerd: shutting down (%d sessions, %d clients, %d samples emitted, %d delivered, %d dropped)\n",
		stats.Sessions, stats.Clients, stats.SamplesEmitted, stats.SamplesDelivered, stats.SamplesDropped)
	f := stats.Floor
	fmt.Printf("steerd: floor activity: %d grants, %d denials, %d releases, %d lease expiries, %d steals, %d handoffs, %d pending\n",
		f.Grants, f.Denials, f.Releases, f.Expiries, f.Steals, f.Handoffs, f.Pending)
	fmt.Printf("steerd: delivery tiers: %d steerers, %d observers, %d frames filtered, %d relay publishes, %d coalesced, %d observer flushes pushed by a steer\n",
		stats.TierSteerers, stats.TierObservers, stats.FramesFiltered, stats.RelayPublished, stats.RelayCoalesced, stats.RelayPushed)
	fmt.Printf("steerd: egress: %d vectored batches, %d buffered, %d frames coalesced (%d bytes), %d bytes zero-copy, ~%d syscalls saved\n",
		stats.EgressBatchesVectored, stats.EgressBatchesBuffered, stats.EgressFramesCoalesced,
		stats.EgressBytesCoalesced, stats.EgressBytesZeroCopy, stats.EgressSyscallsSaved)
	for _, name := range h.SessionNames() {
		if s, ok := h.Lookup(name); ok {
			s.QueueStop()
		}
	}
	h.Close()
	hosting.Close()
	wg.Wait()
}
