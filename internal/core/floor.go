package core

import (
	"fmt"
	"time"
)

// Floor control: explicit arbitration of the master role among collaborating
// clients. The paper's collaborative steering requires exactly one
// participant holding control authority at a time, with the others observing
// — and contested authority must resolve deterministically, observably and
// in bounded time even when the holder crashes, wedges or partitions.
//
// The subsystem has three parts:
//
//   - A master *lease*: the holder must stay live (any inbound frame renews
//     it; idle clients send heartbeats) or the session's maintenance sweep
//     expires the lease and passes the floor on within a bounded interval.
//   - An explicit request/grant/deny protocol: a request while the floor is
//     held is never silently dropped — it is granted, queued (the grant
//     arrives later as a master-changed broadcast), or denied with the
//     holder's name.
//   - A pending-requester queue with a configurable policy: FIFO arrival
//     order, priority order, or FIFO plus administrative steal.
//
// All floor state lives under Session.mu and every transition is a control
// broadcast on the encode-once path (journaled as state, folded by
// compaction), so the bookkeeping costs nothing on the sample fan-out hot
// path and late joiners converge on the same master via their welcome frame.

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

// floorState is the session's floor bookkeeping, guarded by Session.mu. The
// holder itself is Session.master — the one field the welcome snapshot and
// the paper-era accessors already read.
type floorState struct {
	pending []floorWaiter
	arrival uint64
	// seq numbers every floor transition. It rides each master-changed
	// broadcast (and the welcome's floor frame) so clients apply
	// transitions newest-wins even if two broadcasts — emitted outside
	// Session.mu by different goroutines — reach a queue out of order.
	seq   uint64
	stats FloorStats
}

// masterChange is a pending master-changed broadcast, returned by the
// mu-holding floor transitions and emitted by the caller after unlock so a
// broadcast (which takes the journal attach barrier) never nests inside
// Session.mu. The transition seq was assigned under the lock; the emit
// order on the wire may differ, which is exactly what the seq guards.
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

// FloorStats returns a snapshot of the session's floor-control state.
func (s *Session) FloorStats() FloorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.floor.stats
	st.Master = s.master
	st.Pending = len(s.floor.pending)
	return st
}

// enqueueWaiterLocked queues one request (idempotently: a re-request from a
// queued client refreshes its priority but keeps its arrival slot) and
// returns the client's 1-based queue position.
func (s *Session) enqueueWaiterLocked(name string, priority int64) int {
	f := &s.floor
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
	if s.cfg.FloorPolicy == FloorPriority {
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

// removeWaiterLocked cancels a queued request; reports whether it was queued.
func (s *Session) removeWaiterLocked(name string) bool {
	f := &s.floor
	for i := range f.pending {
		if f.pending[i].name == name {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return true
		}
	}
	return false
}

// dequeueWaiterLocked pops the best queued requester that is still attached,
// or "".
func (s *Session) dequeueWaiterLocked() string {
	f := &s.floor
	for len(f.pending) > 0 {
		next := f.pending[0]
		f.pending = f.pending[1:]
		if _, attached := s.clients[next.name]; attached {
			return next.name
		}
	}
	return ""
}

// grantToLocked moves the floor to name and returns the broadcast to emit
// after unlock. Passing "" frees the floor.
func (s *Session) grantToLocked(name string, reason FloorReason) masterChange {
	s.master = name
	if name != "" {
		s.floor.stats.Grants++
		if cc, ok := s.clients[name]; ok {
			// A fresh grant starts a fresh lease: the new master must not
			// inherit staleness accumulated while observing.
			cc.lastBeat.Store(s.now().UnixNano())
		}
	}
	s.floor.seq++
	return masterChange{target: name, reason: reason, seq: s.floor.seq}
}

// passFloorLocked vacates the floor and promotes the next queued requester,
// or frees the floor with the given empty-queue reason.
func (s *Session) passFloorLocked(freeReason FloorReason) masterChange {
	if next := s.dequeueWaiterLocked(); next != "" {
		reason := FloorGranted
		if freeReason == FloorExpired {
			reason = FloorExpired
		}
		return s.grantToLocked(next, reason)
	}
	return s.grantToLocked("", freeReason)
}

// handleRequestMaster implements msgRequestMaster: grant, queue, steal or
// deny — never a silent no-op. The requester always gets an answer: an OK
// ack (granted now), an OK ack with codeFloorQueued naming the holder (the
// grant arrives later as a master-changed broadcast), or a denial carrying
// the holder's name.
func (s *Session) handleRequestMaster(cc *clientConn, e *envelope) {
	s.mu.Lock()
	switch {
	case s.master == cc.name:
		// Idempotent: the holder re-requesting keeps the floor.
		s.mu.Unlock()
		s.ack(cc, e.Seq)

	case s.master == "":
		mc := s.grantToLocked(cc.name, FloorGranted)
		s.mu.Unlock()
		s.ack(cc, e.Seq)
		mc.emit(s)

	case e.Steal:
		if s.cfg.FloorPolicy != FloorSteal {
			s.floor.stats.Denials++
			holder := s.master
			s.mu.Unlock()
			s.rejectSteer(cc, e.Seq, fmt.Errorf("%w by %q: policy %v forbids steal", ErrFloorHeld, holder, s.cfg.FloorPolicy))
			return
		}
		s.floor.stats.Steals++
		s.removeWaiterLocked(cc.name)
		mc := s.grantToLocked(cc.name, FloorStolen)
		s.mu.Unlock()
		s.ack(cc, e.Seq)
		mc.emit(s)

	case e.NoWait:
		s.floor.stats.Denials++
		holder := s.master
		s.mu.Unlock()
		s.rejectSteer(cc, e.Seq, fmt.Errorf("%w by %q", ErrFloorHeld, holder))

	default:
		pos := s.enqueueWaiterLocked(cc.name, cc.priority)
		holder := s.master
		s.mu.Unlock()
		cc.codec.write(&envelope{Type: msgAck, Seq: e.Seq, Ack: &ackMsg{
			OK: true, Code: codeFloorQueued,
			Err: fmt.Sprintf("queued at %d behind %q", pos, holder),
		}}, s.cfg.ControlTimeout)
	}
}

// handleReleaseMaster implements msgReleaseMaster: the holder gives the
// floor up (passing it to the next queued requester), a waiter cancels its
// queued request. Always acked — release is idempotent.
func (s *Session) handleReleaseMaster(cc *clientConn, e *envelope) {
	s.mu.Lock()
	var mc masterChange
	if s.master == cc.name {
		s.floor.stats.Releases++
		mc = s.passFloorLocked(FloorReleased)
	} else {
		s.removeWaiterLocked(cc.name)
	}
	s.mu.Unlock()
	s.ack(cc, e.Seq)
	mc.emit(s)
}

// handleHandoffMaster implements msgHandoffMaster: the holder grants the
// floor to a named attached client.
func (s *Session) handleHandoffMaster(cc *clientConn, e *envelope) {
	s.mu.Lock()
	if s.master != cc.name {
		s.mu.Unlock()
		s.rejectSteer(cc, e.Seq, ErrNotMaster)
		return
	}
	target, ok := s.clients[e.Target]
	if !ok {
		s.mu.Unlock()
		s.rejectSteer(cc, e.Seq, fmt.Errorf("%w: no client %q", ErrRejected, e.Target))
		return
	}
	s.floor.stats.Handoffs++
	// A handoff supersedes the target's queued request, if any.
	s.removeWaiterLocked(target.name)
	mc := s.grantToLocked(target.name, FloorHandoff)
	s.mu.Unlock()
	s.ack(cc, e.Seq)
	mc.emit(s)
}

// dropFloorLocked is drop's floor bookkeeping: the departing client leaves
// the pending queue, and if it held the floor the next queued requester —
// or, failing that, the oldest remaining client that attached asking for
// mastership — is promoted. A session of pure observers is left masterless
// (broadcast as a ""-target change) rather than promoting a client that
// never asked to steer.
func (s *Session) dropFloorLocked(cc *clientConn) masterChange {
	s.removeWaiterLocked(cc.name)
	if s.master != cc.name {
		return masterChange{}
	}
	if next := s.dequeueWaiterLocked(); next != "" {
		return s.grantToLocked(next, FloorGranted)
	}
	for _, name := range s.order {
		if c := s.clients[name]; c != nil && c.wantMaster {
			return s.grantToLocked(name, FloorPromoted)
		}
	}
	return s.grantToLocked("", FloorVacated)
}

// sweepFloor is the maintenance sweep: if the master's lease has lapsed —
// no inbound frame for longer than MasterLease — the floor passes to the
// next queued requester (or falls free). The wedged client stays attached
// as an observer; if it wakes, its next steer is rejected with ErrNotMaster.
// It returns whether a lease was expired.
func (s *Session) sweepFloor() bool {
	now := s.now()
	s.mu.Lock()
	cc := s.clients[s.master]
	if cc == nil || now.Sub(time.Unix(0, cc.lastBeat.Load())) <= s.cfg.MasterLease {
		s.mu.Unlock()
		return false
	}
	s.floor.stats.Expiries++
	expired := s.master
	mc := s.passFloorLocked(FloorExpired)
	s.mu.Unlock()
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
