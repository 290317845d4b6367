package main

import (
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pixel"
)

// viewer is one attached audience client and the goroutine that drains it:
// a steering-tier viewer (lossless; every frame checked), an observer-tier
// client watching the echo channel (coalesced, freshest wins), or an idle
// observer that only follows parameter updates.
type viewer struct {
	name string
	c    *core.Client
	tier core.Tier // steering-tier viewers are lossless: every frame is checked
	app  *app
	on   func() bool // measured window open?
	slot int         // index into the wall's credit table

	lastEcho atomic.Int64 // newest echo value seen on the sample stream
	samples  atomic.Int64 // sample frames received since attach
	bytes    atomic.Int64 // payload bytes decoded: sample values and blob data

	// Written by the drain goroutine, read after it stopped.
	lastStep     int64
	stepRegress  int64
	steerObserve *series
	frameLatency *series
	wall         *wallViewer
	seen         []seenRec // traced pass only
	decoded      []seenRec
	traced       bool
	done         chan struct{}
}

func newViewer(name string, c *core.Client, tier core.Tier, a *app, on func() bool, traced bool) *viewer {
	v := &viewer{
		name: name, c: c, tier: tier, app: a, on: on,
		steerObserve: newSeries(1 << 14), frameLatency: newSeries(1 << 15),
		traced: traced, done: make(chan struct{}),
	}
	if traced {
		v.seen = make([]seenRec, 0, traceCap)
		v.decoded = make([]seenRec, 0, traceCap)
	}
	return v
}

func (v *viewer) drain() {
	defer close(v.done)
	for {
		select {
		case s := <-v.c.Samples():
			v.onSample(s, now())
		case b := <-v.c.Blobs():
			v.onBlob(b, now())
		case <-v.c.Done():
			return
		}
	}
}

func (v *viewer) onSample(s *core.Sample, at int64) {
	v.samples.Add(1)
	v.bytes.Add(int64(s.ByteSize()))
	if s.Step < v.lastStep {
		v.stepRegress++
	}
	v.lastStep = s.Step
	measuring := v.on()
	if measuring && v.wall == nil {
		if t0 := v.app.emitStamp(s.Step); t0 > 0 && at >= t0 {
			v.frameLatency.add(at - t0)
		}
	}
	echo := int64(s.Channels[echoChannel].Value())
	if echo <= v.lastEcho.Load() {
		return
	}
	v.lastEcho.Store(echo)
	if measuring {
		v.steerObserve.add(at - echo)
		if v.traced && len(v.seen) < cap(v.seen) {
			v.seen = append(v.seen, seenRec{id: echo, at: at})
		}
	}
}

func (v *viewer) onBlob(b *core.Blob, at int64) {
	if v.wall == nil || b.Stream != wallStream {
		return
	}
	w := v.app.wall
	ok := v.wall.handle(b)
	done := now()
	if ok {
		v.bytes.Add(int64(len(b.Data)))
		if v.on() {
			v.frameLatency.add(done - w.emitAt[b.Seq%uint64(len(w.emitAt))].Load())
			if v.traced && len(v.decoded) < cap(v.decoded) {
				v.decoded = append(v.decoded, seenRec{id: int64(b.Seq), at: at, done: done})
			}
		}
	}
	// Credit returns whatever the outcome: a bad frame is a failure, not
	// a stall.
	w.acked[v.slot].Store(b.Seq)
}

// check runs the viewer's end-of-run checks, once its drain goroutine has
// stopped: steps never went backwards, and a lossless viewer received every
// sample and decoded every pixel frame emitted since it attached.
func (v *viewer) check(ck *checks, emitted, frames int64) {
	ck.op(v.name+" sample steps in order", v.samples.Load(), v.stepRegress)
	if v.tier != core.TierSteering {
		return
	}
	ck.op(v.name+" received every sample", emitted, abs(emitted-v.samples.Load()))
	if v.wall != nil {
		ck.op(v.name+" decoded every pixel frame with a matching CRC", frames, frames-v.wall.ok)
	}
}

// wallViewer decodes the pixel stream into its own framebuffer and checks
// every frame: the delta chain must be unbroken and the framebuffer's CRC32
// must match the one the producer stamped.
type wallViewer struct {
	fb      []byte
	anchor  pixel.Anchor
	ok      int64 // frames decoded and verified
	broken  int64 // frames that arrived without their predecessor
	corrupt int64 // frames that failed to decode or whose CRC mismatched
}

func newWallViewer() *wallViewer { return &wallViewer{fb: make([]byte, wallSide*wallSide*4)} }

func (w *wallViewer) handle(b *core.Blob) bool {
	enc := b.Encoding
	if b.Flags&pixel.FlagKey != 0 {
		enc = pixel.EncKey
	}
	if !w.anchor.Accept(b.Seq, enc) {
		w.broken++
		return false
	}
	err := pixel.DecodeTiles(b.Data, func(t pixel.Tile) error {
		if t.X < 0 || t.Y < 0 || t.X+t.W > wallSide || t.Y+t.H > wallSide {
			return errors.New("tile outside the framebuffer")
		}
		for r := 0; r < t.H; r++ {
			copy(w.fb[((t.Y+r)*wallSide+t.X)*4:], t.Pix[r*t.W*4:(r+1)*t.W*4])
		}
		return nil
	})
	if err != nil || crc32.ChecksumIEEE(w.fb) != uint32(b.Flags>>8) {
		w.corrupt++
		w.anchor = pixel.Anchor{} // the framebuffer is wrong until the next keyframe
		return false
	}
	w.ok++
	return true
}

// steerer is the master: a closed loop of SetParamContext (the value is
// its own send time) and a seeded think time. It records how late each
// steer left against its due time, so a starved generator shows.
type steerer struct {
	c   *core.Client
	rng *rand.Rand
	on  func() bool

	last   atomic.Int64 // last acknowledged echo value
	sent   atomic.Int64
	errs   atomic.Int64
	seq    uint64
	ack    *series
	lag    *series
	log    []steerSent // traced pass only
	traced bool
}

func newSteerer(c *core.Client, seed int64, on func() bool, traced bool) *steerer {
	s := &steerer{
		c: c, rng: rand.New(rand.NewSource(seed)), on: on,
		ack: newSeries(1 << 14), lag: newSeries(1 << 14), traced: traced,
	}
	if traced {
		s.log = make([]steerSent, 0, traceCap)
	}
	return s
}

// steer sends one steer and returns its echo value. It runs under its own
// deadline, never the loop's context: a steer cancelled in flight could
// still apply, and the final convergence check compares every client's
// view with the last value this steerer saw acknowledged.
func (s *steerer) steer() (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := now()
	err := s.c.SetParamContext(ctx, echoParam, float64(t0))
	t1 := now()
	s.seq++
	s.sent.Add(1)
	if err != nil {
		s.errs.Add(1)
		return 0, err
	}
	s.last.Store(t0)
	if s.on() {
		s.ack.add(t1 - t0)
		if s.traced && len(s.log) < cap(s.log) {
			s.log = append(s.log, steerSent{seq: s.seq, echo: t0, ack: t1})
		}
	}
	return t0, nil
}

func (s *steerer) run(ctx context.Context) {
	due := now()
	for {
		select {
		case <-time.After(time.Duration(max(due-now(), 0))):
		case <-ctx.Done():
			return
		}
		if s.on() {
			s.lag.add(max(now()-due, 0))
		}
		s.steer() // a failure is counted in errs
		think := float64(steerThink) * (0.8 + 0.4*s.rng.Float64())
		due = now() + int64(think)
	}
}

// contender asks for a floor the master never gives up: three no-wait
// requests (explicit denials) then one queue-and-withdraw, every 20 ms.
type contender struct {
	c  *core.Client
	on func() bool

	requests   atomic.Int64
	unexpected atomic.Int64 // grants, or errors other than a denial
	deny       *series
}

func (k *contender) run(ctx context.Context) {
	for i := 1; ctx.Err() == nil; i++ {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return
		}
		k.requests.Add(1)
		if i%4 == 0 {
			qctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			err := k.c.RequestMaster(qctx)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				k.unexpected.Add(1)
			}
			continue
		}
		t0 := now()
		err := k.c.TryRequestMaster(2 * time.Second)
		if k.on() {
			k.deny.add(now() - t0)
		}
		if !errors.Is(err, core.ErrFloorHeld) {
			k.unexpected.Add(1)
		}
	}
}

// joiner cycles as a late joiner: Dial with full replay, wait for the first
// live sample, check the state it was handed, Close, pause.
type joiner struct {
	addr string
	opts core.AttachOptions
	app  *app
	on   func() bool

	attempts atomic.Int64
	errs     atomic.Int64 // failed dials, attaches that never went live, stale state
	attach   *series
	replayed *series // samples replayed per attach (a count, not a time)
}

func (j *joiner) run(ctx context.Context) {
	for ctx.Err() == nil {
		j.once()
		select {
		case <-time.After(joinPause):
		case <-ctx.Done():
		}
	}
}

func (j *joiner) once() {
	stepAtDial, appliedAtDial := j.app.steps.Load(), j.app.applied.Load()
	measuring := j.on()
	j.attempts.Add(1)
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := now()
	c, err := core.Dial(dctx, j.addr, j.opts)
	if err != nil {
		j.errs.Add(1)
		return
	}
	defer c.Close()
	var replayed int64
	for {
		select {
		case s := <-c.Samples():
			if s.Step <= stepAtDial {
				replayed++
				continue
			}
			t1 := now()
			// Replayed state must equal live state: neither the parameter
			// table from the welcome nor the first live sample may be older
			// than what the application had applied before the dial.
			p, ok := c.Param(echoParam)
			if !ok || int64(p.Value.Float()) < appliedAtDial || int64(s.Channels[echoChannel].Value()) < appliedAtDial {
				j.errs.Add(1)
			}
			if measuring {
				j.attach.add(t1 - t0)
				j.replayed.add(replayed)
			}
			return
		case <-c.Done():
			j.errs.Add(1)
			return
		case <-dctx.Done():
			j.errs.Add(1)
			return
		}
	}
}

// fleet is every actor of one set-up.
type fleet struct {
	steerer    *steerer
	viewers    []*viewer // steering tier first, then echo observers
	contenders []*contender
	joiners    []*joiner

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// start launches the closed loops; viewers have been draining since attach.
func (f *fleet) start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	run := func(fn func(context.Context)) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			fn(ctx)
		}()
	}
	run(f.steerer.run)
	for _, k := range f.contenders {
		run(k.run)
	}
	for _, j := range f.joiners {
		run(j.run)
	}
}

// stop ends the closed loops and waits for them.
func (f *fleet) stop() {
	if f.cancel != nil {
		f.cancel()
		f.wg.Wait()
		f.cancel = nil
	}
}
