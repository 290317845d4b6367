package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// floorModel is the reference floorState is checked against: the floor's
// rules written the plain way, for all three policies at once. It keeps its
// waiters in arrival order and ranks them by sorting on every read, and it
// tracks membership and heartbeats itself, where floorState keeps a sorted
// queue and is handed those facts by the session.
type floorModel struct {
	policy  FloorPolicy
	lease   int64
	order   []string // attached clients, oldest first
	want    map[string]bool
	beat    map[string]int64
	holder  string
	granted int64
	waiting []string // arrival order
	seq     uint64
	stats   FloorStats
}

// modelPriority is a client's attach priority; c0/c3 and c1/c4 tie.
func modelPriority(name string) int64 { return int64(name[1]-'0') % 3 }

// rank is the queue in grant order: arrival, or priority then arrival.
func (m *floorModel) rank() []string {
	q := slices.Clone(m.waiting)
	if m.policy == FloorPriority {
		slices.SortStableFunc(q, func(a, b string) int { return cmp.Compare(modelPriority(b), modelPriority(a)) })
	}
	return q
}

func (m *floorModel) give(now int64, to string, why FloorReason) masterChange {
	m.holder = to
	if to != "" {
		m.stats.Grants++
		m.granted = now
	}
	m.seq++
	return masterChange{target: to, reason: why, seq: m.seq}
}

func (m *floorModel) unqueue(name string) {
	m.waiting = slices.DeleteFunc(m.waiting, func(w string) bool { return w == name })
}

// handOn gives the floor to the best waiter with why, or frees it with free.
func (m *floorModel) handOn(now int64, why, free FloorReason) masterChange {
	if q := m.rank(); len(q) > 0 {
		m.unqueue(q[0])
		return m.give(now, q[0], why)
	}
	return m.give(now, "", free)
}

func (m *floorModel) attach(now int64, name string, want bool) masterChange {
	others := len(m.order)
	m.order = append(m.order, name)
	m.want[name] = want
	delete(m.beat, name)
	if m.holder != "" || !(want || others == 0) {
		return masterChange{}
	}
	if mc := m.give(now, name, FloorGranted); others > 0 {
		return mc
	}
	return masterChange{}
}

func (m *floorModel) request(now int64, name string, steal, noWait bool) (string, masterChange) {
	switch {
	case m.holder == name:
		return "ok", masterChange{}
	case m.holder == "":
		return "ok", m.give(now, name, FloorGranted)
	case steal && m.policy == FloorSteal:
		m.stats.Steals++
		m.unqueue(name)
		return "ok", m.give(now, name, FloorStolen)
	case steal:
		m.stats.Denials++
		return fmt.Sprintf("%v by %q: policy %v forbids steal", ErrFloorHeld, m.holder, m.policy), masterChange{}
	case noWait:
		m.stats.Denials++
		return fmt.Sprintf("%v by %q", ErrFloorHeld, m.holder), masterChange{}
	}
	if !slices.Contains(m.waiting, name) {
		m.waiting = append(m.waiting, name)
	}
	return fmt.Sprintf("queued at %d behind %q", slices.Index(m.rank(), name)+1, m.holder), masterChange{}
}

func (m *floorModel) release(now int64, name string) (string, masterChange) {
	if m.holder != name {
		m.unqueue(name)
		return "ok", masterChange{}
	}
	m.stats.Releases++
	return "ok", m.handOn(now, FloorGranted, FloorReleased)
}

func (m *floorModel) handoff(now int64, from, to string) (string, masterChange) {
	if m.holder != from {
		return ErrNotMaster.Error(), masterChange{}
	}
	if !slices.Contains(m.order, to) {
		return fmt.Sprintf("%v: no client %q", ErrRejected, to), masterChange{}
	}
	m.stats.Handoffs++
	m.unqueue(to)
	return "ok", m.give(now, to, FloorHandoff)
}

func (m *floorModel) expire(now int64) masterChange {
	if m.holder == "" || now-max(m.beat[m.holder], m.granted) <= m.lease {
		return masterChange{}
	}
	m.stats.Expiries++
	return m.handOn(now, FloorExpired, FloorExpired)
}

func (m *floorModel) detach(now int64, name string) masterChange {
	m.order = slices.DeleteFunc(m.order, func(c string) bool { return c == name })
	m.unqueue(name)
	if m.holder != name {
		return masterChange{}
	}
	if len(m.waiting) == 0 {
		for _, c := range m.order {
			if m.want[c] {
				return m.give(now, c, FloorPromoted)
			}
		}
	}
	return m.handOn(now, FloorGranted, FloorVacated)
}

// Model runs are op streams, two bytes a step. The first byte's low nibble
// picks the op (ranges starting at the constants below, weighted towards
// requests) and its high nibble the client; the second byte carries the
// op's flags, a handoff target in bits 2-4 and the clock advance in bits
// 5-7. Unused bits are junk the decoder ignores.
const (
	fmAttach    = 0 // arg bit 0: WantMaster
	fmRequest   = 2 // arg bits 0-1: 0/1 plain, 2 noWait, 3 steal (+noWait)
	fmRelease   = 8
	fmHandoff   = 10 // to c0..c4, or to "ghost", never attached
	fmHeartbeat = 11
	fmExpire    = 13
	fmDetach    = 15

	fmClients = 5
	fmLease   = 20
)

var fmNames = []string{"c0", "c1", "c2", "c3", "c4", "ghost"}

// fmStep encodes one model step.
func fmStep(op, who, arg byte) []byte { return []byte{who<<4 | op, arg} }

// runFloorModel drives a fresh floorState and a fresh model with ops and
// returns the first step after which they disagree on the verdict, the
// master change, the holder, the queue order, the seq or the stats. seen,
// when non-nil, counts the reasons of the changes returned.
func runFloorModel(policy FloorPolicy, ops []byte, seen map[FloorReason]int) error {
	m := &floorModel{policy: policy, lease: fmLease, want: map[string]bool{}, beat: map[string]int64{}}
	f := floorState{policy: policy}
	var now int64
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]&15, ops[i+1]
		name := fmNames[int(ops[i]>>4)%fmClients]
		attached := slices.Contains(m.order, name)
		now += int64(arg >> 5)
		want, got := "ok", "ok"
		var wantMC, gotMC masterChange
		var fv floorVerdict
		switch {
		case op < fmRequest:
			if attached {
				continue // the session refuses a duplicate name before the floor sees it
			}
			others := len(m.order)
			wantMC = m.attach(now, name, arg&1 != 0)
			gotMC = f.attach(now, name, arg&1 != 0, others)
		case !attached:
			continue // only an attached client sends frames
		case op < fmRelease:
			m.beat[name] = now // every inbound frame renews the sender's lease
			want, wantMC = m.request(now, name, arg&3 == 3, arg&2 != 0)
			fv, gotMC = f.request(now, name, modelPriority(name), arg&3 == 3, arg&2 != 0)
		case op < fmHandoff:
			m.beat[name] = now
			want, wantMC = m.release(now, name)
			fv, gotMC = f.release(now, name)
		case op < fmHeartbeat:
			m.beat[name] = now
			to := fmNames[int(arg>>2&7)%len(fmNames)]
			isAttached := slices.Contains(m.order, to)
			want, wantMC = m.handoff(now, name, to)
			fv, gotMC = f.handoff(now, name, to, isAttached)
		case op < fmExpire:
			m.beat[name] = now
		case op < fmDetach:
			beat := m.beat[f.holder]
			wantMC = m.expire(now)
			_, gotMC = f.expire(now, beat, fmLease)
		default:
			wantMC = m.detach(now, name)
			promotable := ""
			for _, c := range m.order {
				if m.want[c] {
					promotable = c
					break
				}
			}
			gotMC = f.drop(now, name, promotable)
		}
		switch {
		case fv.err != nil:
			got = fv.err.Error()
		case fv.pos > 0:
			got = fmt.Sprintf("queued at %d behind %q", fv.pos, fv.holder)
		}
		queue := make([]string, len(f.pending))
		for j, w := range f.pending {
			queue[j] = w.name
		}
		wantStats := m.stats
		wantStats.Master, wantStats.Pending = m.holder, len(m.waiting)
		switch {
		case got != want:
			return fmt.Errorf("step %d (op %d by %s): verdict %q, model %q", i/2, op, name, got, want)
		case gotMC != wantMC:
			return fmt.Errorf("step %d (op %d by %s): change %+v, model %+v", i/2, op, name, gotMC, wantMC)
		case !slices.Equal(queue, m.rank()):
			return fmt.Errorf("step %d (op %d by %s): queue %v, model %v", i/2, op, name, queue, m.rank())
		case f.seq != m.seq || f.snapshot() != wantStats:
			return fmt.Errorf("step %d (op %d by %s): seq %d stats %+v, model seq %d stats %+v",
				i/2, op, name, f.seq, f.snapshot(), m.seq, wantStats)
		}
		if seen != nil && gotMC.reason != 0 {
			seen[gotMC.reason]++
		}
	}
	return nil
}

// TestFloorMatchesModel runs random attach, request (plain, noWait,
// steal), release, handoff, heartbeat, expire and detach streams against
// floorState and the model, comparing them after every step, and checks
// that each stream reached every transition reason its policy allows.
func TestFloorMatchesModel(t *testing.T) {
	const steps = 100_000
	for _, policy := range []FloorPolicy{FloorFIFO, FloorPriority, FloorSteal} {
		for _, seed := range []int64{1, 2} {
			ops := make([]byte, 2*steps)
			rand.New(rand.NewSource(seed)).Read(ops)
			seen := map[FloorReason]int{}
			if err := runFloorModel(policy, ops, seen); err != nil {
				t.Fatalf("%v seed %d: %v", policy, seed, err)
			}
			for r := FloorGranted; r <= FloorVacated; r++ {
				if seen[r] == 0 && (r != FloorStolen || policy == FloorSteal) {
					t.Errorf("%v seed %d: no %v transition in %d steps", policy, seed, r, steps)
				}
			}
		}
	}
}

// FuzzFloorModel is TestFloorMatchesModel with fuzz-chosen op streams. The
// seeds mirror FuzzFloorFrames': a held floor met by plain, noWait and
// steal requests, a release and a heartbeat, and bytes with junk flag bits.
func FuzzFloorModel(f *testing.F) {
	held := slices.Concat(fmStep(fmAttach, 0, 0), fmStep(fmAttach, 1, 0))
	for _, tail := range [][]byte{
		fmStep(fmRequest, 1, 0),
		fmStep(fmRequest, 1, 2),
		fmStep(fmRequest, 1, 3),
		slices.Concat(fmStep(fmRequest, 1, 0), fmStep(fmRelease, 0, 0)),
		slices.Concat(fmStep(fmRequest, 1, 0), fmStep(fmHeartbeat, 1, 0xe0), fmStep(fmExpire, 0, 0xe0),
			fmStep(fmExpire, 0, 0xe0), fmStep(fmExpire, 0, 0xe0)),
		{0xff, 0xff, 0x12, 0x1f, 0xf2, 0xe3},
	} {
		for _, policy := range []FloorPolicy{FloorFIFO, FloorPriority, FloorSteal} {
			f.Add(uint8(policy), slices.Concat(held, tail))
		}
	}
	f.Fuzz(func(t *testing.T, policy uint8, ops []byte) {
		if err := runFloorModel(FloorPolicy(policy%3+1), ops, nil); err != nil {
			t.Fatal(err)
		}
	})
}
