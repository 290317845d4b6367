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
// snapshot (obsView[i] where i % workers == idx), so one steer frame costs
// the session O(workers) ring pushes and the per-observer work — interest
// match, queue push, writer wakeup — runs off the hot goroutine at
// O(observers / workers) per worker.
//
// The worker's input queue is a frameRing: under overload its drop-oldest
// overwrite coalesces the backlog before fan-out even starts, and each
// observer's own sample ring coalesces again between writer wakeups.
//
// The workers are also the single owner of observer-tier writer wakeups,
// under one policy (run, below) with two bounds. Samples: ObserverInterval
// is a rate limit, not a delay. A worker flushes at once when its last
// sample flush is at least an interval old, otherwise when the interval
// since that flush has passed — so a dense stream still reaches a slow
// observer as freshest-wins batches, at most one unprompted flush per
// interval, while a sparse one stops waiting for a tick. A frame stamped
// FrameBuf.push — the first sample and first blob after an applied steer —
// is not held at all: the worker that drains it flushes now, TCP's PSH for
// steers, at a cost bounded by the steer rate. A sample flush wakes only
// the observers with a sample queued, so the ones watching the steer's
// effect are not written behind those that hold nothing but its parameter
// update. Control: parameter updates toward observers are queued inline by
// fanout but their wakeup is handed here (wakeCtrl). An observer with a
// sample queued takes its update along, ctrl first, in the same batch; the
// rest are woken by a control flush at most ctrlBound after the worker saw
// the update, which does not restart the sample window. When both fall due
// in one pass, the sample holders are woken first.

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
	n := s.cfg.FanoutWorkers
	if n <= 0 {
		n = 1
	}
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
		select {
		case w.ready <- struct{}{}:
		default:
		}
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

// run is the worker loop. Each wakeup drains the input ring into observer
// rings; what was delivered is then held until the sample rule in the file
// header releases it, and control fanout queued meanwhile until its
// deadline. The one timer is armed for the earlier of the two only while
// something is held, so an idle session's workers sleep.
func (w *relayWorker) run() {
	interval := w.s.cfg.ObserverInterval
	bound := min(ctrlBound, interval)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var (
		frames  []*FrameBuf
		armedAt time.Time // the armed timer's deadline; zero once its value is taken
		held    bool      // observers may have samples queued since the last sample flush
		last    time.Time // the last sample flush that woke a writer
		ctrlDue time.Time // when queued control must leave; zero when none waits
	)
	for {
		push := false
		select {
		case <-w.ready:
			frames = w.in.drainInto(frames[:0], 0)
			if len(frames) > 0 {
				push = w.deliver(frames)
				held = true
			}
		case <-timer.C:
			armedAt = time.Time{}
		case <-w.s.closeCh:
			w.in.closeRelease()
			return
		}
		now := time.Now()
		if w.ctrl.Swap(false) && ctrlDue.IsZero() {
			ctrlDue = now.Add(bound)
		}
		samples := held && (push || !now.Before(last.Add(interval)))
		ctrl := !ctrlDue.IsZero() && !now.Before(ctrlDue)
		if samples || ctrl {
			// A sample flush that woke a writer restarts the window, a
			// push flush included (a timer still armed for the old window
			// fires early and re-arms); a control flush does not.
			if w.notify(samples, ctrl) {
				last = now
				if push {
					w.s.statRelayPushed.Add(1)
				}
			}
			if samples {
				held = false
			}
			if ctrl {
				ctrlDue = time.Time{}
			}
		}
		var due time.Time
		if held {
			due = last.Add(interval)
		}
		if !ctrlDue.IsZero() && (due.IsZero() || ctrlDue.Before(due)) {
			due = ctrlDue
		}
		if due.IsZero() || (!armedAt.IsZero() && !due.Before(armedAt)) {
			continue
		}
		// Re-arm earlier. The drain covers both timer channel semantics: a
		// fired value still buffered (go < 1.23) or none at all.
		if !armedAt.IsZero() && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(due.Sub(now))
		armedAt = due
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
	obs := *w.s.obsView.Load()
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
	obs := *w.s.obsView.Load()
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
