package core

import (
	"fmt"
	"time"
)

// Floor control: explicit arbitration of the master role among collaborating
// clients. The paper's collaborative steering requires exactly one
// participant holding control authority at a time, with the others observing
// — and contested authority must resolve deterministically, observably and
// in bounded time: a request is granted, queued under the session's
// FloorPolicy or denied with the holder's name, never dropped, and a holder
// that crashes, wedges or partitions loses the floor when its lease lapses.
//
// The whole floor is one value, floorState, whose transitions touch no lock,
// socket, clock or client connection: each returns the requester's verdict
// and the master change to broadcast. Session calls them under Session.mu,
// answers the requester and emits the change after unlock, on the
// encode-once control path (journaled as state, folded by compaction), so
// the floor costs nothing on the sample fan-out hot path and late joiners
// converge on the same master via their welcome frame.

// FloorPolicy selects how contested master requests are arbitrated.
type FloorPolicy int

const (
	// FloorUnset is the zero value: NewSession resolves it to FloorFIFO,
	// and a hub resolves it to its configured session default first — so an
	// explicit FloorFIFO survives a hub whose default is another policy.
	FloorUnset FloorPolicy = iota
	// FloorFIFO queues contested requests in arrival order.
	FloorFIFO
	// FloorPriority queues contested requests by the requesting client's
	// attach priority (higher first), arrival order breaking ties.
	FloorPriority
	// FloorSteal is FIFO plus administrative preemption: a request carrying
	// the steal flag takes the floor from the current holder immediately.
	FloorSteal
)

// String returns the policy's flag spelling.
func (p FloorPolicy) String() string {
	switch p {
	case FloorPriority:
		return "priority"
	case FloorSteal:
		return "steal"
	default:
		return "fifo"
	}
}

// ParseFloorPolicy maps a flag spelling onto its policy.
func ParseFloorPolicy(s string) (FloorPolicy, error) {
	switch s {
	case "", "fifo":
		return FloorFIFO, nil
	case "priority":
		return FloorPriority, nil
	case "steal":
		return FloorSteal, nil
	default:
		return FloorFIFO, fmt.Errorf("core: unknown floor policy %q (want fifo, priority or steal)", s)
	}
}

// FloorReason explains a master-changed broadcast.
type FloorReason uint8

const (
	// FloorGranted: a request was granted — the floor was free, or the
	// requester reached the head of the pending queue.
	FloorGranted FloorReason = iota + 1
	// FloorHandoff: the holder granted the floor to a named client.
	FloorHandoff
	// FloorPromoted: the holder detached and the oldest client that had
	// asked for mastership was promoted.
	FloorPromoted
	// FloorExpired: the holder's lease expired (stalled heartbeat) and the
	// floor passed to the next queued requester — or fell free.
	FloorExpired
	// FloorStolen: an administrative request preempted the holder.
	FloorStolen
	// FloorReleased: the holder released the floor and nobody was waiting.
	FloorReleased
	// FloorVacated: the holder detached and no remaining client had asked
	// for mastership; the session runs without a master ("" target) rather
	// than press-ganging an observer.
	FloorVacated
)

// String returns the reason name.
func (r FloorReason) String() string {
	switch r {
	case FloorGranted:
		return "granted"
	case FloorHandoff:
		return "handoff"
	case FloorPromoted:
		return "promoted"
	case FloorExpired:
		return "expired"
	case FloorStolen:
		return "stolen"
	case FloorReleased:
		return "released"
	case FloorVacated:
		return "vacated"
	default:
		return "unknown"
	}
}

// FloorStats snapshots a session's floor-control activity.
type FloorStats struct {
	// Master is the current holder ("" when the floor is free).
	Master string
	// Pending is the number of queued requesters.
	Pending int
	// Grants counts every transfer of the floor to a client, whatever the
	// trigger (request, queue promotion, handoff, steal, drop promotion).
	Grants uint64
	// Denials counts explicit request denials (no-wait requests while held,
	// steal requests under a non-steal policy).
	Denials uint64
	// Releases counts voluntary releases by the holder.
	Releases uint64
	// Handoffs counts holder-initiated grants to a named client.
	Handoffs uint64
	// Expiries counts leases expired by the maintenance sweep.
	Expiries uint64
	// Steals counts administrative preemptions.
	Steals uint64
}

// Add returns the field-wise sum of f and o, the aggregate of two sessions'
// floors. Master names one session's holder, so the sum leaves it empty.
func (f FloorStats) Add(o FloorStats) FloorStats {
	return FloorStats{
		Pending:  f.Pending + o.Pending,
		Grants:   f.Grants + o.Grants,
		Denials:  f.Denials + o.Denials,
		Releases: f.Releases + o.Releases,
		Handoffs: f.Handoffs + o.Handoffs,
		Expiries: f.Expiries + o.Expiries,
		Steals:   f.Steals + o.Steals,
	}
}

// floorWaiter is one queued master request.
type floorWaiter struct {
	name     string
	priority int64
	arrival  uint64
}

// floorState is the whole floor. The caller holds Session.mu around every
// method and passes the time in (UnixNano of the session clock).
type floorState struct {
	policy FloorPolicy
	holder string // "" when the floor is free
	// grantedAt is when the holder was granted the floor: its lease runs
	// from the later of this and its last inbound frame.
	grantedAt int64
	pending   []floorWaiter
	arrival   uint64
	// seq numbers every floor transition. It rides each master-changed
	// broadcast (and the welcome's floor frame) so clients apply
	// transitions newest-wins even if two broadcasts — emitted outside
	// Session.mu by different goroutines — reach a queue out of order.
	seq   uint64
	stats FloorStats
}

// floorVerdict is a transition's answer to the client that asked for it:
// granted (the zero value), queued at pos behind holder, or denied with err.
type floorVerdict struct {
	pos    int
	holder string
	err    error
}

// masterChange is a pending master-changed broadcast, returned by the floor
// transitions and emitted by the caller after unlock so a broadcast (which
// takes the journal attach barrier) never nests inside Session.mu. The seq
// was assigned under the lock; the emit order on the wire may differ, which
// is exactly what the seq guards.
type masterChange struct {
	target string
	reason FloorReason
	seq    uint64
}

// emit broadcasts the transition; the zero value emits nothing.
func (mc masterChange) emit(s *Session) {
	if mc.reason == 0 {
		return
	}
	s.broadcastControl(&envelope{Type: msgMasterChanged, Seq: mc.seq, Target: mc.target, Reason: mc.reason})
}

// snapshot returns the floor's stats with its holder and queue depth.
func (f *floorState) snapshot() FloorStats {
	st := f.stats
	st.Master = f.holder
	st.Pending = len(f.pending)
	return st
}

// attach is the implicit grant at attach: a free floor goes to a client that
// asked for it, or to the first participant (the paper's one-user case).
// others counts the clients already attached. With none, the newcomer's
// welcome is the only reader and no change is returned; otherwise the change
// is broadcast like any grant, or the others would keep reading a free floor.
func (f *floorState) attach(now int64, name string, wantMaster bool, others int) masterChange {
	if f.holder != "" || (!wantMaster && others > 0) {
		return masterChange{}
	}
	if mc := f.grant(now, name, FloorGranted); others > 0 {
		return mc
	}
	return masterChange{}
}

// request is msgRequestMaster: grant, queue, steal or deny — never a silent
// no-op. The holder re-requesting keeps the floor, which is how a waiter
// whose grant broadcast was lost learns it holds it.
func (f *floorState) request(now int64, name string, priority int64, steal, noWait bool) (floorVerdict, masterChange) {
	switch {
	case f.holder == name:
		return floorVerdict{}, masterChange{}
	case f.holder == "":
		return floorVerdict{}, f.grant(now, name, FloorGranted)
	case steal && f.policy != FloorSteal:
		f.stats.Denials++
		return floorVerdict{err: fmt.Errorf("%w by %q: policy %v forbids steal", ErrFloorHeld, f.holder, f.policy)}, masterChange{}
	case steal:
		f.stats.Steals++
		f.remove(name)
		return floorVerdict{}, f.grant(now, name, FloorStolen)
	case noWait:
		f.stats.Denials++
		return floorVerdict{err: fmt.Errorf("%w by %q", ErrFloorHeld, f.holder)}, masterChange{}
	}
	return floorVerdict{pos: f.enqueue(name, priority), holder: f.holder}, masterChange{}
}

// release is msgReleaseMaster: the holder passes the floor on, anyone else
// withdraws its queued request. Always granted — release is idempotent.
func (f *floorState) release(now int64, name string) (floorVerdict, masterChange) {
	if f.holder != name {
		f.remove(name)
		return floorVerdict{}, masterChange{}
	}
	f.stats.Releases++
	return floorVerdict{}, f.pass(now, FloorReleased)
}

// handoff is msgHandoffMaster: the holder grants the floor to a named
// attached client, superseding that client's queued request.
func (f *floorState) handoff(now int64, from, to string, attached bool) (floorVerdict, masterChange) {
	if f.holder != from {
		return floorVerdict{err: ErrNotMaster}, masterChange{}
	}
	if !attached {
		return floorVerdict{err: fmt.Errorf("%w: no client %q", ErrRejected, to)}, masterChange{}
	}
	f.stats.Handoffs++
	f.remove(to)
	return floorVerdict{}, f.grant(now, to, FloorHandoff)
}

// drop is a detach: the client leaves the queue, and if it held the floor
// the next waiter gets it, else promotable (the oldest remaining client that
// attached asking for mastership, or ""), else nobody — a session of pure
// observers is left masterless rather than press-ganging one.
func (f *floorState) drop(now int64, name, promotable string) masterChange {
	f.remove(name)
	if f.holder != name {
		return masterChange{}
	}
	if len(f.pending) == 0 && promotable != "" {
		return f.grant(now, promotable, FloorPromoted)
	}
	return f.pass(now, FloorVacated)
}

// expire takes the floor from a holder whose lease has lapsed: no inbound
// frame (holderBeat) and no grant for longer than lease. It returns the
// expired holder, or "" when nothing expired.
func (f *floorState) expire(now, holderBeat int64, lease time.Duration) (string, masterChange) {
	if f.holder == "" || now-max(holderBeat, f.grantedAt) <= int64(lease) {
		return "", masterChange{}
	}
	f.stats.Expiries++
	expired := f.holder
	return expired, f.pass(now, FloorExpired)
}

// grant moves the floor to name ("" frees it) and numbers the transition.
func (f *floorState) grant(now int64, name string, reason FloorReason) masterChange {
	f.holder = name
	if name != "" {
		f.stats.Grants++
		f.grantedAt = now
	}
	f.seq++
	return masterChange{target: name, reason: reason, seq: f.seq}
}

// pass hands the floor to the next waiter, or frees it with reason. The
// waiter is told FloorExpired if an expiry passed it the floor, FloorGranted
// otherwise.
func (f *floorState) pass(now int64, reason FloorReason) masterChange {
	if len(f.pending) == 0 {
		return f.grant(now, "", reason)
	}
	next := f.pending[0].name
	f.pending = f.pending[1:]
	if reason != FloorExpired {
		reason = FloorGranted
	}
	return f.grant(now, next, reason)
}

// enqueue queues one request (idempotently: a re-request from a queued
// client refreshes its priority but keeps its arrival slot) and returns the
// client's 1-based queue position.
func (f *floorState) enqueue(name string, priority int64) int {
	found := -1
	for i := range f.pending {
		if f.pending[i].name == name {
			f.pending[i].priority = priority
			found = i
			break
		}
	}
	if found < 0 {
		f.arrival++
		f.pending = append(f.pending, floorWaiter{name: name, priority: priority, arrival: f.arrival})
		found = len(f.pending) - 1
	}
	if f.policy == FloorPriority {
		// Stable re-sort: (priority desc, arrival asc). The queue is tiny —
		// bounded by attached clients — and this is the cold control path.
		w := f.pending[found]
		for found > 0 {
			prev := f.pending[found-1]
			if prev.priority > w.priority || (prev.priority == w.priority && prev.arrival < w.arrival) {
				break
			}
			f.pending[found] = prev
			found--
		}
		f.pending[found] = w
	}
	return found + 1
}

// remove cancels a queued request, if any.
func (f *floorState) remove(name string) {
	for i := range f.pending {
		if f.pending[i].name == name {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return
		}
	}
}

// FloorStats returns a snapshot of the session's floor-control state.
func (s *Session) FloorStats() FloorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor.snapshot()
}

// floorOp serves a request, release or handoff frame: the transition under
// s.mu, then the requester's answer (an OK ack, an OK ack with
// codeFloorQueued naming the holder — the grant arrives later as a
// master-changed broadcast — or a denial), then the broadcast.
func (s *Session) floorOp(cc *clientConn, e *envelope) {
	now := s.now().UnixNano()
	var v floorVerdict
	var mc masterChange
	s.mu.Lock()
	switch e.Type {
	case msgRequestMaster:
		v, mc = s.floor.request(now, cc.name, cc.priority, e.Steal, e.NoWait)
	case msgReleaseMaster:
		v, mc = s.floor.release(now, cc.name)
	default:
		_, attached := s.clients[e.Target]
		v, mc = s.floor.handoff(now, cc.name, e.Target, attached)
	}
	s.mu.Unlock()
	switch {
	case v.err != nil:
		s.rejectSteer(cc, e.Seq, v.err)
	case v.pos > 0:
		cc.codec.write(&envelope{Type: msgAck, Seq: e.Seq, Ack: &ackMsg{
			OK: true, Code: codeFloorQueued,
			Err: fmt.Sprintf("queued at %d behind %q", v.pos, v.holder),
		}}, s.cfg.ControlTimeout)
	default:
		s.ack(cc, e.Seq)
	}
	mc.emit(s)
}

// sweepFloor is the maintenance sweep: if the master's lease has lapsed the
// floor passes to the next queued requester (or falls free). The wedged
// client stays attached as an observer; if it wakes, its next steer is
// rejected with ErrNotMaster. It returns whether a lease was expired.
func (s *Session) sweepFloor() bool {
	now := s.now().UnixNano()
	s.mu.Lock()
	var beat int64
	if cc := s.clients[s.floor.holder]; cc != nil {
		beat = cc.lastBeat.Load()
	}
	expired, mc := s.floor.expire(now, beat, s.cfg.MasterLease)
	s.mu.Unlock()
	if expired == "" {
		return false
	}
	mc.emit(s)
	s.broadcastEvent(fmt.Sprintf("master lease expired: %q lost the floor", expired))
	return true
}

// leaseTick is the lease timer's callback: a sweep, then a re-arm at a
// quarter of the lease (a wedged master loses the floor within
// 1.25×MasterLease of its last frame) unless Close, under s.mu, came first.
func (s *Session) leaseTick() {
	s.sweepFloor()
	s.mu.Lock()
	if !s.closed {
		s.leaseTimer.Reset(max(s.cfg.MasterLease/4, time.Millisecond))
	}
	s.mu.Unlock()
}
