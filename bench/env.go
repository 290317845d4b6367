package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
)

// checks counts operations attempted against operations failed. A check
// that fails also leaves a note, printed with the result.
type checks struct {
	attempted, failed int64
	notes             []string
}

func (c *checks) op(what string, attempted, failed int64) {
	c.attempted += attempted
	if failed > 0 {
		c.failed += failed
		c.notes = append(c.notes, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// env is one set-up: a hub on loopback TCP hosting one session, the
// stepping application, and the attached fleet, all in this process.
type env struct {
	w        workload
	hub      *hub.Hub
	served   chan struct{} // closed when hub.Serve returned
	sess     *core.Session
	addr     string
	app      *app
	fleet    *fleet
	clients  []*core.Client
	outDir   string
	tmp      string // journal directory, "" without a journal
	emitted0 uint64 // samples emitted before any viewer attached (the prefill)

	measuring atomic.Bool
	traced    bool
}

func (e *env) on() bool { return e.measuring.Load() }

// setUp builds the whole venue and returns once warmupSteers steers have
// been seen by every watching client: hub listening, fleet attached,
// warm-up done.
func setUp(w workload, seed int64, traced bool, outDir string) (e *env, err error) {
	e = &env{w: w, traced: traced, outDir: outDir, served: make(chan struct{})}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := hub.Config{}
	if w.journal {
		if err = os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if e.tmp, err = os.MkdirTemp(outDir, "journal-"); err != nil {
			return nil, err
		}
		cfg.JournalDir = e.tmp // fsync stays off: the journal's default
	}
	e.hub = hub.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(e.served)
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.addr = l.Addr().String()
	go func() {
		defer close(e.served)
		e.hub.Serve(l) // returns nil once the hub closes
	}()
	if e.sess, err = e.hub.CreateSession(core.SessionConfig{Name: "venue", AppName: "steerbench-pepc", SampleQueue: sampleQueue}); err != nil {
		return nil, err
	}
	var tr *appTrace
	if traced {
		tr = newAppTrace(e.on)
	}
	if e.app, err = newApp(e.sess, w, seed, tr); err != nil {
		return nil, err
	}
	e.app.prefill(w.prefill)
	e.emitted0 = e.sess.Stats().SamplesEmitted

	dial := func(opts core.AttachOptions) (*core.Client, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		opts.ReplayPolicy = core.ReplayNone
		c, err := core.Dial(ctx, e.addr, opts)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", opts.Name, err)
		}
		e.clients = append(e.clients, c)
		return c, nil
	}
	f := &fleet{}
	e.fleet = f
	// The steerer attaches first and asks for the floor; it watches no
	// sample channel, only acks and parameter updates.
	c, err := dial(core.AttachOptions{Name: "steerer", WantMaster: true,
		Subscriptions: []core.Subscription{core.ChannelSub(idleChannel)}})
	if err != nil {
		return nil, err
	}
	f.steerer = newSteerer(c, seed, e.on, traced)
	for i := 0; i < w.viewers; i++ {
		// Buffers deep enough that the client library's freshest-wins
		// eviction never fires: a lossless viewer must see every frame.
		c, err := dial(core.AttachOptions{Name: fmt.Sprintf("viewer-%d", i), SampleBuffer: 4096, BlobBuffer: 2 * wallWindow})
		if err != nil {
			return nil, err
		}
		v := newViewer(c.Name(), c, core.TierSteering, e.app, e.on, traced)
		if w.wall {
			v.wall, v.slot = newWallViewer(), i
		}
		f.viewers = append(f.viewers, v)
		if i < w.contenders {
			f.contenders = append(f.contenders, &contender{c: c, on: e.on, deny: newSeries(1 << 12)})
		}
	}
	for i := 0; i < w.observers; i++ {
		c, err := dial(core.AttachOptions{Name: fmt.Sprintf("observer-%d", i), Tier: core.TierObserver, SampleBuffer: 4096,
			Subscriptions: []core.Subscription{core.ChannelSub(echoChannel)}})
		if err != nil {
			return nil, err
		}
		f.viewers = append(f.viewers, newViewer(c.Name(), c, core.TierObserver, e.app, e.on, traced))
	}
	for i := 0; i < w.idle; i++ {
		// Idle observers only follow parameter updates; nothing drains them.
		if _, err := dial(core.AttachOptions{Name: fmt.Sprintf("idle-%d", i), Tier: core.TierObserver,
			Subscriptions: []core.Subscription{core.ChannelSub(idleChannel)}}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < lateJoiners; i++ {
		opts := core.AttachOptions{ReplayPolicy: core.ReplayAll, SampleBuffer: 8192}
		if w.wall {
			// A joiner on the wall follows the steering, not the pixels: the
			// window's credit only counts the resident viewers.
			opts.Subscriptions = []core.Subscription{core.ChannelSub(echoChannel)}
		}
		f.joiners = append(f.joiners, &joiner{addr: e.addr, opts: opts, app: e.app, on: e.on,
			attach: newSeries(1 << 12), replayed: newSeries(1 << 12)})
	}
	for _, v := range f.viewers {
		go v.drain()
	}
	go e.app.run()

	for i := 0; i < warmupSteers; i++ {
		echo, err := f.steerer.steer()
		if err != nil {
			return nil, fmt.Errorf("warm-up steer: %w", err)
		}
		if !waitFor(5*time.Second, func() bool { return e.allSaw(echo) }) {
			return nil, errors.New("warm-up: a steer never reached every watching client")
		}
	}
	if w.wall {
		// The wall opens with its keyframe; set-up ends once every viewer
		// has decoded it.
		e.app.wall.live.Store(true)
		if !waitFor(5*time.Second, func() bool { return e.app.wall.slowest() >= 1 }) {
			return nil, errors.New("warm-up: the first pixel frame never reached every viewer")
		}
	}
	return e, nil
}

// allSaw reports whether every watching client has seen echo or newer.
func (e *env) allSaw(echo int64) bool {
	for _, v := range e.fleet.viewers {
		if v.lastEcho.Load() < echo {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// counters is what the window's two edges snapshot.
type counters struct {
	at    int64
	steps int64
	bytes int64
	sess  core.Stats
	floor core.FloorStats
	hub   hub.Stats
	cpu   float64 // user + system seconds
	mem   runtime.MemStats
}

func (e *env) snapshot() counters {
	c := counters{steps: e.app.steps.Load(), sess: e.sess.Stats(), floor: e.sess.FloorStats(), hub: e.hub.Stats()}
	for _, v := range e.fleet.viewers {
		c.bytes += v.bytes.Load()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	if e.traced {
		runtime.ReadMemStats(&c.mem)
	}
	c.at = now()
	return c
}

// tearDown stops everything in order, running the end-of-run checks on the
// way: convergence, losslessness, step order, clean shutdown.
func (e *env) tearDown(ck *checks) {
	f := e.fleet
	f.stop()

	// Every client's view of the steered parameter converges on the last
	// acknowledged value, on the sample stream and in the parameter table.
	last := f.steerer.last.Load()
	paramIs := func(c *core.Client) bool {
		p, ok := c.Param(echoParam)
		return ok && int64(p.Value.Float()) == last
	}
	waitFor(3*time.Second, func() bool {
		for _, c := range e.clients {
			if !paramIs(c) {
				return false
			}
		}
		return e.allSaw(last)
	})
	var stale int64
	for _, c := range e.clients {
		if !paramIs(c) {
			stale++
		}
	}
	for _, v := range f.viewers {
		if v.lastEcho.Load() != last {
			stale++
		}
	}
	ck.op("final parameter view equals last steered value", int64(len(e.clients)+len(f.viewers)), stale)

	// Stop the application, then let the lossless viewers drain.
	e.sess.QueueStop()
	select {
	case <-e.app.done:
	case <-time.After(5 * time.Second):
		ck.op("application stopped", 1, 1)
	}
	st := e.sess.Stats()
	emitted := int64(st.SamplesEmitted - e.emitted0)
	var frames int64
	if e.w.wall {
		frames = int64(e.app.wall.emitted.Load())
	}
	waitFor(3*time.Second, func() bool {
		for _, v := range f.viewers {
			if v.tier == core.TierSteering && (v.samples.Load() < emitted || (v.wall != nil && e.app.wall.acked[v.slot].Load() < uint64(frames))) {
				return false
			}
		}
		return true
	})
	for _, c := range e.clients {
		c.Close()
	}
	for _, v := range f.viewers {
		<-v.done
		v.check(ck, emitted, frames)
	}
	if e.w.observers == 0 {
		// Nobody attached at the observer tier, so the session itself must
		// not have dropped a frame either.
		ck.op("session dropped no frame", int64(st.SamplesDelivered+st.SamplesDropped), int64(st.SamplesDropped))
	}
	ck.op("steers acknowledged", f.steerer.sent.Load(), f.steerer.errs.Load())
	for _, k := range f.contenders {
		ck.op("floor requests answered with a denial or a clean withdrawal", k.requests.Load(), k.unexpected.Load())
	}
	for _, j := range f.joiners {
		ck.op("late joins went live with current state", j.attempts.Load(), j.errs.Load())
	}
	e.close()
	if e.tmp != "" {
		_, err := os.Stat(e.tmp)
		ck.op("journal directory removed", 1, b2i(!errors.Is(err, os.ErrNotExist)))
	}
}

// close releases what setUp acquired; safe on a half-built env.
func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.hub != nil {
		e.hub.Close()
		<-e.served
	}
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runConfig is one benchmark run.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	rounds  int           // fewest set-ups per run; 0 means setupRounds
	budget  time.Duration // set-ups repeat at least this long
	settle  time.Duration // closed loops run this long before the window opens
}

// runWorkload sets the venue up several times (tearing all but the last down
// again), measures the last for the configured time, tears it down and
// returns the result. An error means the run could not be made at all;
// failed checks are in the result.
func runWorkload(rc runConfig) (*result, error) {
	if rc.rounds == 0 {
		rc.rounds = setupRounds
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ck := &checks{}
	baseline := runtime.NumGoroutine()
	quiet := func() {
		ok := waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
		ck.op("goroutines back to baseline", 1, b2i(!ok))
	}

	// Set-ups repeat for setupBudget, at least rc.rounds times: a cheap
	// set-up (10 ms on steer.room) is noisy, and the median of forty is
	// steadier than the median of nine. All but the last are torn down.
	var e *env
	var setups []float64
	for begin := now(); ; {
		// The first set-up is timed from process start, so runtime and
		// package initialisation count; later ones from their own start.
		t0 := int64(0)
		if len(setups) > 0 {
			t0 = now()
		}
		var err error
		if e, err = setUp(rc.w, rc.seed, rc.traced, rc.outDir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if len(setups) >= rc.rounds && now()-begin >= int64(rc.budget) {
			break
		}
		e.tearDown(ck)
		quiet()
	}

	e.fleet.start()
	time.Sleep(rc.settle)
	c0 := e.snapshot()
	e.measuring.Store(true)
	// The window passes in 50 ms naps, each ending in one read of the
	// resident set.
	rss := make([]float64, 0, int(rc.seconds*20)+1)
	for end := time.Now().Add(time.Duration(rc.seconds * float64(time.Second))); time.Now().Before(end); {
		time.Sleep(50 * time.Millisecond)
		rss = append(rss, procStatusMB("VmRSS"))
	}
	e.measuring.Store(false)
	c1 := e.snapshot()
	goroutines := runtime.NumGoroutine()

	e.tearDown(ck)
	quiet()

	res := newResult(rc, ck, setups)
	sort.Float64s(rss)
	res.RSSPeakMB = procStatusMB("VmHWM")
	e.fill(res, c0, c1, rss[len(rss)*9/10], goroutines)
	return res, nil
}
