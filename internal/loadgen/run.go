package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
)

// echoParam is the steered parameter the in-process echo application
// registers: the steerer writes time-since-epoch nanoseconds into it, the
// application reflects the applied value on the sample stream's "echo"
// channel, and every observer turns the reflected value back into a
// steer→apply→observe round-trip latency. Nanosecond counts over any
// realistic soak stay far below float64's 53-bit integer ceiling.
const echoParam = "echo"

// appPollInterval is the in-process application's steering poll cadence —
// the simulated "loop boundary" at which queued steers apply. It is the
// floor under steer→observe latency, deliberately well below the default
// steer interval.
const appPollInterval = 500 * time.Microsecond

// counters is the atomic mirror of Counters shared by every actor.
type counters struct {
	steers, steerErrs, samples   atomic.Uint64
	attaches, attachErrs, churns atomic.Uint64
	denials, withdrawals, grants atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Steers:           c.steers.Load(),
		SteerErrs:        c.steerErrs.Load(),
		SamplesObserved:  c.samples.Load(),
		Attaches:         c.attaches.Load(),
		AttachErrs:       c.attachErrs.Load(),
		Churns:           c.churns.Load(),
		FloorDenials:     c.denials.Load(),
		FloorWithdrawals: c.withdrawals.Load(),
		UnexpectedGrants: c.grants.Load(),
	}
}

// runner carries one run's shared state across its actors.
type runner struct {
	sc    Scenario
	addr  string
	epoch time.Time
	local bool // in-process hub (echo channel active)

	steerObserve, steerAck, attach Hist
	sampleGap, floorDeny           Hist
	ct                             counters
}

// Run executes one scenario to completion and returns its Result. With
// Scenario.Addr empty it self-hosts: an in-process hub on a loopback TCP
// listener, one echo application per session — the full
// client→TCP→hub→journal→client loop without external orchestration. With
// Addr set it drives a live steerd; steer→observe needs the echo
// application, so a remote run reports control-plane RTT, attach and floor
// latencies only.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	sc.fill()
	r := &runner{sc: sc, epoch: time.Now(), local: sc.Addr == ""}

	var (
		h        *hub.Hub
		sessions []string
		appStop  chan struct{}
		appWG    sync.WaitGroup
	)
	if r.local {
		jdir := ""
		if sc.Journal {
			var err error
			jdir, err = os.MkdirTemp("", "steerload-journal-*")
			if err != nil {
				return nil, fmt.Errorf("loadgen: journal dir: %w", err)
			}
			defer os.RemoveAll(jdir)
		}
		h = hub.New(hub.Config{
			JournalDir: jdir,
			SessionDefaults: core.SessionConfig{
				FloorPolicy:      core.FloorFIFO,
				MasterLease:      sc.MasterLease,
				FanoutWorkers:    sc.FanoutWorkers,
				ObserverInterval: sc.ObserverInterval,
			},
		})
		defer h.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("loadgen: listen: %w", err)
		}
		go h.Serve(l)
		r.addr = l.Addr().String()

		appStop = make(chan struct{})
		for i := 0; i < sc.Sessions; i++ {
			name := fmt.Sprintf("soak-%02d", i)
			sess, err := h.CreateSession(core.SessionConfig{Name: name, AppName: "steerload-echo"})
			if err != nil {
				return nil, fmt.Errorf("loadgen: create session: %w", err)
			}
			sessions = append(sessions, name)
			appWG.Add(1)
			go func() {
				defer appWG.Done()
				r.echoApp(sess, appStop)
			}()
		}
	} else {
		r.addr = sc.Addr
		sessions = sc.SessionNames
		if len(sessions) == 0 {
			if sc.Sessions == 1 {
				sessions = []string{""} // the target's default session
			} else {
				for i := 0; i < sc.Sessions; i++ {
					sessions = append(sessions, fmt.Sprintf("steerd-lb3d-%02d", i))
				}
			}
		}
	}

	var emitted0 uint64
	if h != nil {
		emitted0 = h.Stats().SamplesEmitted
	}

	runCtx, cancel := context.WithTimeout(ctx, sc.Duration)
	defer cancel()
	start := time.Now()

	// Tier membership is a property of the live fleet — by the time the run
	// ends every client has detached and the counts read zero — so sample
	// it at half-duration, when the fleet is fully attached and steady.
	tierC := make(chan [2]int, 1)
	if h != nil {
		go func() {
			t := time.NewTimer(sc.Duration / 2)
			defer t.Stop()
			select {
			case <-t.C:
				st := h.Stats()
				tierC <- [2]int{st.TierSteerers, st.TierObservers}
			case <-runCtx.Done():
				tierC <- [2]int{0, 0}
			}
		}()
	}

	var wg sync.WaitGroup
	for _, name := range sessions {
		name := name
		observers := sc.ClientsPerSession - 1 // steerer takes one slot
		floorers, churners := 0, 0
		if sc.Floor && observers >= 2 {
			floorers = 2
			observers -= 2
		}
		if sc.Churn && observers >= 2 {
			churners = 2
			observers -= 2
		}

		// The steerer attaches strictly first: the session grants the floor
		// implicitly to the first participant, so letting 63 observers race
		// the steerer's attach hands mastership to a client that will never
		// release it and starves the whole floor storm. Every other actor
		// waits for masterUp, and the attach flood then contends against a
		// genuinely held floor, not an empty one.
		masterUp := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.steerer(runCtx, name, masterUp)
		}()
		for i := 0; i < observers; i++ {
			wg.Add(1)
			go func(idx, total int) {
				defer wg.Done()
				<-masterUp
				r.observer(runCtx, name, idx, total)
			}(i, observers)
		}
		for i := 0; i < floorers; i++ {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				<-masterUp
				r.floorer(runCtx, name, idx)
			}(i)
		}
		for i := 0; i < churners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-masterUp
				r.churner(runCtx, name)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Scenario: sc,
		Start:    start,
		Elapsed:  elapsed,
		Hist: map[string]*HistSnapshot{
			"steer_observe": r.steerObserve.Snapshot(),
			"steer_ack":     r.steerAck.Snapshot(),
			"attach":        r.attach.Snapshot(),
			"sample_gap":    r.sampleGap.Snapshot(),
			"floor_deny":    r.floorDeny.Snapshot(),
		},
		Counters: r.ct.snapshot(),
	}
	if h != nil {
		st := h.Stats()
		tc := <-tierC
		st.TierSteerers, st.TierObservers = tc[0], tc[1]
		res.Hub = &st
		res.SamplesPerSec = float64(st.SamplesEmitted-emitted0) / elapsed.Seconds()
		close(appStop)
		appWG.Wait()
	}
	return res, nil
}

// echoApp is the in-process steered application: it polls steering ops at
// appPollInterval, reflects every applied echo value on the next sample's
// "echo" channel immediately, and keeps a steady SampleInterval emission
// going regardless — the broadcast fan-out load the latency is measured
// under.
func (r *runner) echoApp(sess *core.Session, stop <-chan struct{}) {
	st := sess.Steered()
	var echoBits atomic.Uint64
	var dirty atomic.Bool
	err := st.RegisterFloat(echoParam, 0, 0, math.MaxFloat64,
		"steer→observe echo timestamp (ns since scenario epoch)",
		func(v float64) {
			echoBits.Store(math.Float64bits(v))
			dirty.Store(true)
		})
	if err != nil {
		return
	}

	// Burst payload slices are built once and shared across samples: the
	// session encodes a broadcast before returning from Emit, and nothing
	// mutates the data afterwards.
	burst := make([]core.Channel, r.sc.BurstChannels-1)
	for i := range burst {
		data := make([]float64, r.sc.BurstLen)
		for j := range data {
			data[j] = float64(i*r.sc.BurstLen + j)
		}
		burst[i] = core.Channel{Dims: [3]int{len(data), 1, 1}, Data: data}
	}
	// -payload-bytes adds one bulk channel per sample: the large-frame
	// shape that drives the hub's zero-copy writev egress (each such frame
	// becomes its own iovec entry instead of a pass through the buffered
	// writer).
	var payload core.Channel
	if r.sc.PayloadBytes > 0 {
		data := make([]float64, (r.sc.PayloadBytes+7)/8)
		for j := range data {
			data[j] = float64(j)
		}
		payload = core.Channel{Dims: [3]int{len(data), 1, 1}, Data: data}
	}
	emit := func(step int64) {
		s := core.NewSample(step)
		s.Channels[echoParam] = core.Scalar(math.Float64frombits(echoBits.Load()))
		for i, ch := range burst {
			s.Channels[fmt.Sprintf("burst-%02d", i)] = ch
		}
		if payload.Data != nil {
			s.Channels["payload"] = payload
		}
		st.Emit(s)
	}

	poll := time.NewTicker(appPollInterval)
	defer poll.Stop()
	steady := time.NewTicker(r.sc.SampleInterval)
	defer steady.Stop()
	step := int64(0)
	for {
		select {
		case <-stop:
			return
		case <-poll.C:
			if st.Poll() == core.ControlStop {
				return
			}
			if dirty.Swap(false) {
				step++
				emit(step)
			}
		case <-steady.C:
			if st.Poll() == core.ControlStop {
				return
			}
			dirty.Store(false) // this emission carries the freshest value
			step++
			emit(step)
		}
	}
}

// attachCounted wraps core.Dial with the attach histogram and counters.
// Late-run failures caused purely by the scenario deadline are not counted
// as errors.
func (r *runner) attachCounted(ctx context.Context, opts core.AttachOptions) (*core.Client, error) {
	t0 := time.Now()
	c, err := core.Dial(ctx, r.addr, opts)
	if err != nil {
		if ctx.Err() == nil && !deadlineTimeout(ctx, err) {
			r.ct.attachErrs.Add(1)
		}
		return nil, err
	}
	r.attach.Record(time.Since(t0))
	r.ct.attaches.Add(1)
	return c, nil
}

// deadlineTimeout reports whether err is a timeout attributable to ctx's
// deadline having arrived. ctx.Err() alone is not a reliable witness: the
// socket deadline the dial and handshake derive from ctx fires on the
// netpoller's clock, while context.WithTimeout flips its state only when
// its own timer goroutine runs — under load (notably -race) the latter can
// lag by tens of milliseconds, so a deadline-caused i/o timeout surfaces
// while ctx.Err() still reads nil.
func deadlineTimeout(ctx context.Context, err error) bool {
	d, ok := ctx.Deadline()
	if !ok || time.Now().Before(d) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// steerer is the session's master: it attaches WantMaster, closes masterUp,
// then drives SetParam round trips at SteerInterval, recording the ack RTT
// and (in local mode) stamping the echo parameter the observers measure
// against. Losing the floor (a contender won a race) is recovered by a
// blocking re-request, not counted as an error.
func (r *runner) steerer(ctx context.Context, session string, masterUp chan<- struct{}) {
	var upOnce sync.Once
	signalUp := func() { upOnce.Do(func() { close(masterUp) }) }
	defer signalUp() // a failed steerer must not wedge the waiting contenders
	c, err := r.attachCounted(ctx, core.AttachOptions{
		Session: session, WantMaster: true, SampleBuffer: 4,
	})
	if err != nil {
		return
	}
	defer c.Close()
	if c.Role() != core.RoleMaster {
		if err := c.RequestMaster(ctx); err != nil {
			return
		}
	}
	signalUp()

	param := echoParam
	if !r.local {
		param = r.sc.Param
	}
	tick := time.NewTicker(r.sc.SteerInterval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			var v float64
			if r.local {
				v = float64(time.Since(r.epoch).Nanoseconds())
			} else {
				// Sweep the remote parameter across its range.
				n++
				span := r.sc.ParamMax - r.sc.ParamMin
				v = r.sc.ParamMin + span*float64(n%100)/100
			}
			t0 := time.Now()
			sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
			err := c.SetParamContext(sctx, param, v)
			scancel()
			switch {
			case err == nil:
				r.steerAck.Record(time.Since(t0))
				r.ct.steers.Add(1)
			case errors.Is(err, core.ErrNotMaster):
				if c.RequestMaster(ctx) != nil {
					return
				}
			default:
				if ctx.Err() != nil {
					return
				}
				r.ct.steerErrs.Add(1)
			}
		}
	}
}

// observer is a steady viewer: it consumes the sample stream, counts
// arrivals, and in local mode turns echoed steer timestamps into
// steer→observe latencies. Observer 0 of each session also records sample
// inter-arrival gaps (fan-out jitter — meaningful in remote mode too).
//
// With ObserverTier on (local mode), observers attach at core.TierObserver:
// the first ceil(total × ObserverInterest) subscribe to the echo channel —
// present in every emitted sample, so they receive the full stream through
// the relay workers — and the rest subscribe to a channel the application
// never emits, so the interest filter drops everything before their rings.
func (r *runner) observer(ctx context.Context, session string, idx, total int) {
	opts := core.AttachOptions{Session: session, SampleBuffer: 32}
	if r.sc.ObserverTier && r.local {
		opts.Tier = core.TierObserver
		interested := int(math.Ceil(float64(total) * r.sc.ObserverInterest))
		if interested < 1 {
			interested = 1
		}
		if idx < interested {
			opts.Subscriptions = []core.Subscription{core.ChannelSub(echoParam)}
		} else {
			opts.Subscriptions = []core.Subscription{core.ChannelSub("steerload-uninterested")}
		}
		// A 4k-observer fleet attaching in one instant measures a handshake
		// DoS, not relay delivery: ramp the fleet over the first third of
		// the run, interested observers (lowest idx) first, so steer→observe
		// is sampled against a steadily growing audience.
		if total > 1 {
			step := r.sc.Duration / 3 / time.Duration(total)
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(idx) * step):
			}
		}
	}
	c, err := r.attachCounted(ctx, opts)
	if err != nil {
		return
	}
	defer c.Close()

	// Echo stamps older than this observer's own attach were broadcast (or
	// journal-replayed) before it was live: measuring them would fold the
	// observer's startup into the round-trip distribution.
	minEcho := float64(time.Since(r.epoch).Nanoseconds())
	lastEcho := 0.0
	var lastArrival time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case s := <-c.Samples():
			if s == nil {
				continue
			}
			now := time.Now()
			r.ct.samples.Add(1)
			if idx == 0 {
				if !lastArrival.IsZero() {
					r.sampleGap.Record(now.Sub(lastArrival))
				}
				lastArrival = now
			}
			if v := s.Channels[echoParam].Value(); v > lastEcho {
				if v > minEcho {
					r.steerObserve.Record(now.Sub(r.epoch) - time.Duration(int64(v)))
				}
				lastEcho = v
			}
		}
	}
}

// churner cycles attach → dwell → detach, the late-joiner flood: with
// journaling on, every attach replays the session's accumulated history
// before going live, so the attach histogram is the replay-path latency.
func (r *runner) churner(ctx context.Context, session string) {
	for ctx.Err() == nil {
		c, err := r.attachCounted(ctx, core.AttachOptions{Session: session, SampleBuffer: 8})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Transient refusal (e.g. handshake shed under overload):
			// back off briefly and retry.
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		dwell := time.NewTimer(r.sc.ChurnDwell)
	drain:
		for {
			select {
			case <-ctx.Done():
				dwell.Stop()
				c.Close()
				return
			case <-dwell.C:
				break drain
			case s := <-c.Samples():
				if s != nil {
					r.ct.samples.Add(1)
				}
			}
		}
		c.Close()
		r.ct.churns.Add(1)
	}
}

// floorer storms the floor: TryRequestMaster against the steerer's held
// floor must come back as an explicit, prompt denial (the floor_deny
// histogram measures how prompt); every fourth probe instead queues a
// blocking request and withdraws it, exercising the enqueue/withdraw path
// under churn. A race the contender wins (the steerer was between floors)
// is released immediately and counted, not left to wedge the scenario.
func (r *runner) floorer(ctx context.Context, session string, idx int) {
	c, err := r.attachCounted(ctx, core.AttachOptions{Session: session, SampleBuffer: 4})
	if err != nil {
		return
	}
	defer c.Close()

	tick := time.NewTicker(r.sc.FloorInterval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			n++
			if n%4 == 0 {
				// Queue-then-withdraw: the request parks behind the holder,
				// then the cancelled context withdraws it.
				qctx, qcancel := context.WithTimeout(ctx, r.sc.FloorInterval)
				err := c.RequestMaster(qctx)
				qcancel()
				switch {
				case err == nil:
					r.ct.grants.Add(1)
					c.ReleaseMaster(time.Second)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					r.ct.withdrawals.Add(1)
				}
				continue
			}
			t0 := time.Now()
			err := c.TryRequestMaster(2 * time.Second)
			switch {
			case err == nil:
				r.ct.grants.Add(1)
				c.ReleaseMaster(time.Second)
			case errors.Is(err, core.ErrFloorHeld):
				r.floorDeny.Record(time.Since(t0))
				r.ct.denials.Add(1)
			}
		}
	}
}
