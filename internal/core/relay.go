package core

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Observer-tier fan-out: the session goroutine hands each sample frame to a
// small pool of relay workers instead of walking every observer itself —
// internal/netsim/mcast.go's replicate-at-the-fabric idea promoted into the
// real delivery path. Each worker owns a stride of the observer RCU
// snapshot (observers()[i] where i % workers == idx), so one steer frame costs
// the session O(workers) ring pushes and the per-observer work — interest
// match, queue push, writer wakeup — runs off the hot goroutine at
// O(observers / workers) per worker.
//
// The worker's input queue is a frameRing: under overload its drop-oldest
// overwrite coalesces the backlog before fan-out even starts, and each
// observer's own sample ring coalesces again between writer wakeups.
//
// The workers are also the single owner of observer-tier writer wakeups,
// under one rule with two bounds, stated once as a pure step (flushRule);
// run only waits, on one token that a publish and the rule's deadline — an
// AfterFunc — both leave. Samples: ObserverInterval is a rate limit, not a
// delay. A worker flushes at once when its last sample flush that woke a
// writer is at least an interval old, otherwise an interval after it — so
// a dense stream reaches a slow observer as freshest-wins batches, at most
// one unprompted flush per interval, while a sparse one waits for no tick.
// A frame stamped FrameBuf.push — the first sample and first blob after an
// applied steer — is not held: the worker that drains it flushes now,
// TCP's PSH for steers, at a cost bounded by the steer rate. A sample
// flush wakes only the observers with a sample queued, so those watching
// the steer's effect are not written behind those that hold only its
// parameter update. Control: parameter updates toward observers are queued
// inline by fanout but their wakeup is handed here (wakeCtrl). An observer
// with a sample queued takes its update along, ctrl first, in the same
// batch; the rest are woken by a control flush at most ctrlBound after the
// worker saw the update, which does not restart the sample window. When
// both fall due in one pass, the sample holders are woken first.

// relayQueue bounds a worker's input ring; beyond it the oldest undelivered
// frame is coalesced away (observers want freshest, not complete).
const relayQueue = 256

// defaultObserverInterval is the longest unprompted spacing between
// observer flushes when the config leaves it zero.
const defaultObserverInterval = 25 * time.Millisecond

// ctrlBound is the longest a parameter update toward an observer waits for
// its wakeup, capped at ObserverInterval (so a negative interval still
// flushes control at once).
const ctrlBound = time.Millisecond

// defaultFanoutWorkers resolves FanoutWorkers = 0.
func defaultFanoutWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// relay is the started worker pool; the Session holds it behind an
// atomic.Pointer, created lazily under s.mu by the first observer admit.
type relay struct {
	s       *Session
	workers []*relayWorker
}

type relayWorker struct {
	s *Session
	// idx/n define the worker's stride over the observer snapshot.
	idx, n int
	// in is the worker's input queue; pushes retain, drains transfer the
	// references to the worker.
	in *frameRing
	// ready is the capacity-1 wakeup token.
	ready chan struct{}
	// ctrl is set before the token by wakeCtrl: control for this stride's
	// observers is queued. A token shared with a frame drain still carries
	// it, so the control deadline is never lost to a coincident publish.
	ctrl atomic.Bool
}

// ensureRelayLocked starts the pool on the first observer-tier admit; the
// caller holds s.mu. Sessions without observers never pay for the
// goroutines.
func (s *Session) ensureRelayLocked() {
	if s.relay.Load() != nil {
		return
	}
	n := s.cfg.FanoutWorkers // NewSession resolved it to at least one
	rl := &relay{s: s, workers: make([]*relayWorker, n)}
	for i := range rl.workers {
		w := &relayWorker{
			s: s, idx: i, n: n,
			in:    newFrameRing(relayQueue),
			ready: make(chan struct{}, 1),
		}
		rl.workers[i] = w
		go w.run()
	}
	s.relay.Store(rl)
}

// publish hands one sample frame to every worker: the session goroutine's
// whole share of observer fan-out. Each ring push takes its own reference;
// an overwritten slot is a frame coalesced away before fan-out.
//
//steer:hotpath
func (rl *relay) publish(fb *FrameBuf) {
	var coalesced uint64
	for _, w := range rl.workers {
		if w.in.push(fb) {
			coalesced++
		}
	}
	rl.wake()
	rl.s.statRelayPublished.Add(1)
	if coalesced > 0 {
		rl.s.statRelayCoalesced.Add(coalesced)
	}
}

// wake leaves every worker its wakeup token: a frame sits in its input
// ring, or (through wakeCtrl) fanout queued control toward observers.
//
//steer:hotpath
func (rl *relay) wake() {
	for _, w := range rl.workers {
		w.wake()
	}
}

// wake leaves the worker its token; its flush deadline leaves the same one.
func (w *relayWorker) wake() {
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// wakeCtrl is wake for parameter updates fanout queued toward observers and
// left their writers' wakeup to the control bound: it flags each worker
// before leaving the token.
//
//steer:hotpath
func (rl *relay) wakeCtrl() {
	for _, w := range rl.workers {
		w.ctrl.Store(true)
	}
	rl.wake()
}

// flushRule is the file header's flush rule as a pure step: no goroutine,
// channel, timer or clock read.
type flushRule struct {
	interval, bound time.Duration
	held            bool      // observers may have samples queued since the last sample flush
	last            time.Time // the last sample flush that woke a writer
	ctrlDue         time.Time // when queued control must leave; zero when none waits
}

// step folds in one wakeup at now — a batch drained, a push-stamped frame
// in it, control flagged — and reports which flushes are due.
func (r *flushRule) step(now time.Time, drained, push, ctrl bool) (flushSamples, flushCtrl bool) {
	r.held = r.held || drained
	if ctrl && r.ctrlDue.IsZero() {
		r.ctrlDue = now.Add(r.bound)
	}
	flushSamples = r.held && (push || !now.Before(r.last.Add(r.interval)))
	flushCtrl = !r.ctrlDue.IsZero() && !now.Before(r.ctrlDue)
	return flushSamples, flushCtrl
}

// done records the flushes step asked for and returns the next deadline,
// zero when nothing is held. A sample flush that woke a writer restarts
// the window, a push flush included; a control flush does not.
func (r *flushRule) done(now time.Time, flushedSamples, flushedCtrl, woke bool) time.Time {
	if woke {
		r.last = now
	}
	if flushedSamples {
		r.held = false
	}
	if flushedCtrl {
		r.ctrlDue = time.Time{}
	}
	var due time.Time
	if r.held {
		due = r.last.Add(r.interval)
	}
	if !r.ctrlDue.IsZero() && (due.IsZero() || r.ctrlDue.Before(due)) {
		due = r.ctrlDue
	}
	return due
}

// run is the worker loop. Each wakeup drains the input ring into observer
// rings and steps the flush rule, whose deadline is re-armed only while
// something is held, so an idle session's workers sleep.
func (w *relayWorker) run() {
	rule := flushRule{interval: w.s.cfg.ObserverInterval, bound: min(ctrlBound, w.s.cfg.ObserverInterval)}
	deadline := stoppedAfterFunc(w.wake)
	var frames []*FrameBuf
	for {
		select {
		case <-w.ready:
		case <-w.s.closeCh:
			deadline.Stop()
			w.in.closeRelease()
			return
		}
		frames = w.in.drainInto(frames[:0], 0)
		push := len(frames) > 0 && w.deliver(frames)
		now := w.s.now()
		samples, ctrl := rule.step(now, len(frames) > 0, push, w.ctrl.Swap(false))
		woke := w.notify(samples, ctrl)
		if woke && push {
			w.s.statRelayPushed.Add(1)
		}
		if due := rule.done(now, samples, ctrl, woke); !due.IsZero() {
			deadline.Reset(due.Sub(now))
		}
	}
}

// deliver pushes a drained batch into the rings of this worker's stride of
// the observer snapshot, interest-filtered per client. The batch references
// belong to the worker and are released here; each ring push retains its
// own. The snapshot is loaded per batch: a client dropped since the frame
// was published has closed rings, which discard. It reports whether the
// batch held a push-stamped frame.
//
//steer:hotpath
func (w *relayWorker) deliver(frames []*FrameBuf) (push bool) {
	for _, fb := range frames {
		push = push || fb.push
	}
	obs := w.s.snap.Load().observers()
	var delivered, dropped, filtered uint64
	for i := w.idx; i < len(obs); i += w.n {
		cc := obs[i]
		d := cc.desc.Load()
		for _, fb := range frames {
			if len(fb.keys) > 0 && !d.wantsSample(fb.keys) {
				filtered++
				continue
			}
			if cc.out.push(fb) {
				cc.dropped.Add(1)
				dropped++
			} else {
				delivered++
			}
		}
	}
	releaseFrames(frames)
	w.s.statSamplesDelivered.Add(delivered)
	w.s.statSamplesDropped.Add(dropped)
	if filtered > 0 {
		w.s.statFramesFiltered.Add(filtered)
	}
	return push
}

// notify wakes the writers of this worker's observers that have queued
// samples (samples) or queued control (ctrl), and reports whether it woke
// any for samples. When both fall due in one pass the sample holders go
// first, taking their control along, so a push still reaches its watchers
// ahead of the control-only observers. Runs once per flush, so its cost —
// a snapshot walk or two — is paid per interval, per steer or per control
// bound, not per frame.
func (w *relayWorker) notify(samples, ctrl bool) (sampled bool) {
	obs := w.s.snap.Load().observers()
	if samples {
		for i := w.idx; i < len(obs); i += w.n {
			if cc := obs[i]; cc.out.length() > 0 {
				w.s.notifyWriter(cc)
				sampled = true
			}
		}
	}
	if ctrl {
		for i := w.idx; i < len(obs); i += w.n {
			if cc := obs[i]; cc.ctrl.length() > 0 {
				w.s.notifyWriter(cc)
			}
		}
	}
	return sampled
}
