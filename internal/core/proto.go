package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// The session↔client exchange rides internal/wire's tagged binary frames.
// One envelope is a header frame followed by a known number of Kind-typed
// field-group frames:
//
//	tagHeader     int64 ×6   [version, msgType, seq, flags, aux, nframes]
//	tagStrs       string ×k  positional strings of the message type
//	tagParamMeta  int64 ×4n  [type, valueKind, intValue, nchoices] per param
//	tagParamNum   f64   ×3n  [floatValue, min, max] per param
//	tagParamStr   string     [name, help, stringValue, choices...] per param
//	tagSetMeta    int64 ×2n  [valueKind, intValue] per assignment
//	tagSetNum     f64   ×n   [floatValue] per assignment
//	tagSetStr     string ×2n [name, stringValue] per assignment
//	tagViewMeta   int64 ×2   [seq, nviz]
//	tagViewNums   f64        [eye×3, center×3, up×3, fovy, viz values...]
//	tagViewKeys   string     sorted viz parameter names
//	tagSampleMeta int64      [step, nchan, then d0,d1,d2 per channel]
//	tagSampleName string ×n  sorted channel names
//	tagSampleData f64        one frame per channel, in name order
//
// The header is versioned, and both ends speak exactly ProtoVersion: an
// unknown magic or any other header version fails with ErrVersionMismatch
// instead of a codec panic. Because an envelope is already a byte sequence,
// broadcasts serialize once and hand the same buffer to every client queue
// (encode-once fan-out).

// ProtoVersion is the protocol generation this package speaks, and the only
// one it accepts: a peer whose header carries any other version is refused
// at the handshake with a version-coded ack. History: v1 was gob-framed, v2
// wire-native, v3 added floor control and leases, v4 interest management
// (tiers, subscriptions, replay policies), v5 the bulk blob frame class.
const ProtoVersion = 5

// Frame tags of the envelope codec.
const (
	tagHeader uint32 = 0x53430001 + iota // "SC" + ordinal
	tagStrs
	tagParamMeta
	tagParamNum
	tagParamStr
	tagSetMeta
	tagSetNum
	tagSetStr
	tagViewMeta
	tagViewNums
	tagViewKeys
	tagSampleMeta
	tagSampleName
	tagSampleData
	// tagFloor carries the welcome's session advertisement: int64 ×6
	// [leaseMillis, policy, floorSeq, tier, observerMillis, proto]. A zero
	// lease means leases are disabled and clients need not heartbeat;
	// floorSeq anchors the client's newest-wins ordering of master-changed
	// broadcasts; tier is the granted delivery tier and observerMillis the
	// observer coalescing interval. proto is always ProtoVersion, and the
	// decoder refuses a welcome that advertises another.
	tagFloor
	// tagAttachExt is the attach's delivery request: int64 ×(3+n)
	// [tier, replayPolicy, nsubs, kind...] with the matching subscription
	// names appended to the attach's tagStrs after [name, session].
	tagAttachExt
	// tagSub carries a subscribe/unsubscribe selector set: int64 ×n
	// subscription kinds, names in the envelope's tagStrs positionally.
	tagSub
	// tagBlobMeta carries a blob frame's fixed-size descriptor:
	// int64 ×6 [seq, encoding, width, height, flags, len]. The stream name
	// rides in the envelope's tagStrs; len must match the tagBlobData
	// payload exactly.
	tagBlobMeta
	// tagBlobData carries the blob payload as one wire bytes element —
	// the big-frame half of the envelope, 64KB–1MB for pixel streams.
	tagBlobData
)

// Register the envelope tag names so wire-level tag mismatches report
// "tagHeader (0x53430001)" instead of a bare number.
func init() {
	for tag, name := range map[uint32]string{
		tagHeader:     "tagHeader",
		tagStrs:       "tagStrs",
		tagParamMeta:  "tagParamMeta",
		tagParamNum:   "tagParamNum",
		tagParamStr:   "tagParamStr",
		tagSetMeta:    "tagSetMeta",
		tagSetNum:     "tagSetNum",
		tagSetStr:     "tagSetStr",
		tagViewMeta:   "tagViewMeta",
		tagViewNums:   "tagViewNums",
		tagViewKeys:   "tagViewKeys",
		tagSampleMeta: "tagSampleMeta",
		tagSampleName: "tagSampleName",
		tagSampleData: "tagSampleData",
		tagFloor:      "tagFloor",
		tagAttachExt:  "tagAttachExt",
		tagSub:        "tagSub",
		tagBlobMeta:   "tagBlobMeta",
		tagBlobData:   "tagBlobData",
	} {
		wire.TagName[tag] = name
	}
}

// Header flag bits.
const (
	flagWantMaster = 1 << iota
	flagAckOK
	flagHasView
	// flagNoWait marks a master request that must be granted or denied
	// immediately — never queued.
	flagNoWait
	// flagSteal marks an administrative master request that asks to preempt
	// the current holder (honoured only under the steal policy).
	flagSteal
	// flagSubAll marks a msgSubscribe that resets the sender's interest set
	// to subscribe-all (both kinds), ignoring any selectors in the frame.
	flagSubAll
)

// maxEnvelopeFrames bounds the field-group frames one envelope may declare;
// far above any legitimate envelope (a sample with thousands of channels),
// it only stops a corrupt header from spinning the decoder.
const maxEnvelopeFrames = 1 << 16

// Per-envelope payload budgets: the total bytes one envelope may retain
// across all its field frames while decoding. Bulk data (samples) flows
// only session→client, so the client side is generous; everything a client
// legitimately sends a session is control-sized, so the session side is
// tight — a hostile client streaming huge frames is cut off long before
// memory matters.
const (
	clientEnvelopeBudget = 1 << 30
	serverEnvelopeBudget = 8 << 20
)

// serverLimits are the per-frame wire limits a session imposes on inbound
// client traffic (attach, steering batches, view state: all small).
var serverLimits = wire.Limits{MaxElements: 1 << 16, MaxBlobLen: 1 << 16, MaxPayload: 1 << 20}

// messageBytes estimates the retained payload size of one decoded frame.
func messageBytes(m *wire.Message) int {
	n := len(m.Int32s)*4 + len(m.Int64s)*8 + len(m.Float32s)*4 + len(m.Float64s)*8 + len(m.Bools)
	for _, s := range m.Strings {
		n += 4 + len(s)
	}
	for _, b := range m.Blobs {
		n += 4 + len(b)
	}
	return n
}

// errMalformed reports an envelope whose frames do not assemble.
var errMalformed = errors.New("core: malformed envelope")

// msgType discriminates envelope payloads.
type msgType uint8

const (
	msgAttach msgType = iota + 1
	msgWelcome
	msgSample
	msgSetParam
	msgParamUpdate
	msgSetView
	msgViewUpdate
	msgCommand
	msgRequestMaster
	msgHandoffMaster
	msgMasterChanged
	msgEvent
	msgAck
	msgDetach
	// msgReleaseMaster gives the floor up (holder) or cancels a queued
	// request (waiter); always acked.
	msgReleaseMaster
	// msgHeartbeat renews the sender's liveness for the master lease; it is
	// one-way and never acked. Any inbound frame renews the lease — the
	// heartbeat only exists so an idle master has something to send.
	msgHeartbeat
	// msgSubscribe adds selectors to the sender's interest set (the
	// first selective subscribe for a kind narrows that kind from
	// subscribe-all to exactly the named set), or resets to subscribe-all
	// under flagSubAll; always acked.
	msgSubscribe
	// msgUnsubscribe removes the named selectors from the sender's
	// interest set; with no selectors it clears both kinds to
	// interested-in-nothing. Always acked.
	msgUnsubscribe
	// msgBlob is the bulk binary frame class: an application-defined
	// payload (pixel tiles, rendered frames, geometry) keyed by a stream
	// name for interest filtering. Session→client only, and never journaled
	// (blob streams are publisher-delta-coded; see JournalBlob).
	msgBlob
)

// commandKind names the session-level commands a master may issue.
type commandKind uint8

const (
	cmdPause commandKind = iota + 1
	cmdResume
	cmdStop
	cmdCheckpoint
)

// envelope is the in-memory form of one protocol message.
type envelope struct {
	Type msgType
	// Seq correlates requests with acks.
	Seq uint64

	Attach  *attachMsg
	Welcome *welcomeMsg
	Sample  *Sample
	Sets    []ParamSet
	Params  []Param
	View    *ViewState
	Command commandKind
	Target  string // handoff target / master-changed name ("" = floor free)
	Event   string
	Ack     *ackMsg
	// Reason explains a master-changed broadcast (FloorReason).
	Reason FloorReason
	// NoWait/Steal qualify a master request (see the flag bits).
	NoWait bool
	Steal  bool
	// Subs carries the selectors of a subscribe/unsubscribe frame; SubAll
	// marks a subscribe-all reset (flagSubAll).
	Subs   []Subscription
	SubAll bool
	// Blob is the bulk frame payload.
	Blob *Blob
}

type attachMsg struct {
	Name string
	// WantMaster asks for the master role if it is free.
	WantMaster bool
	// Session names the target session when the endpoint hosts several
	// (a hub); "" lets the endpoint pick its default session.
	Session string
	// Priority orders this client's floor requests under the priority
	// policy; higher wins. Ignored by the FIFO policy.
	Priority int64
	// Tier is the requested delivery tier (zero = TierSteering).
	Tier Tier
	// Replay is the requested journal replay policy (zero = ReplayAll).
	Replay ReplayPolicy
	// Subs is the initial interest set (empty = subscribe-all).
	Subs []Subscription
}

type welcomeMsg struct {
	SessionName string
	AppName     string
	ClientName  string
	Role        Role
	Master      string
	Params      []Param
	View        *ViewState
	// LeaseMillis advertises the session's master lease in milliseconds;
	// clients heartbeat at a fraction of it. 0 means leases are disabled.
	LeaseMillis int64
	// Policy is the session's floor arbitration policy.
	Policy FloorPolicy
	// FloorSeq is the floor-transition sequence number the Master field
	// reflects; master-changed broadcasts with a lower seq are stale.
	FloorSeq uint64
	// Tier is the delivery tier the session granted.
	Tier Tier
	// ObserverMillis is the observer-tier coalescing interval in
	// milliseconds; <= 0 means observer frames are flushed immediately.
	ObserverMillis int64
}

type ackMsg struct {
	OK   bool
	Code errCode
	Err  string
}

// ---- encoding ----

// appendValue splits v into the (kind, int, float, string) lanes of a frame
// group.
func valueLanes(v Value) (kind int64, i int64, f float64, s string) {
	return int64(v.Kind), v.I, v.F, v.S
}

// subscriptionFromLanes validates one decoded (kind, name) selector pair.
func subscriptionFromLanes(kind int64, name string) (Subscription, error) {
	switch SubscriptionKind(kind) {
	case SubChannel, SubParam:
		return Subscription{Kind: SubscriptionKind(kind), Name: name}, nil
	default:
		return Subscription{}, fmt.Errorf("%w: subscription kind %d", errMalformed, kind)
	}
}

// valueFromLanes is the inverse of valueLanes.
func valueFromLanes(kind, i int64, f float64, s string) (Value, error) {
	k := wire.Kind(kind)
	switch k {
	case wire.KindFloat64, wire.KindInt64, wire.KindBool, wire.KindString:
		return Value{Kind: k, I: i, F: f, S: s}, nil
	default:
		return Value{}, fmt.Errorf("%w: value kind %d", errMalformed, kind)
	}
}

// encodeEnvelope appends the wire form of e to buf and returns the extended
// slice. The header goes out with flags, aux and nframes zeroed; the
// message's case sets flags and aux and appends its field groups, and the
// three header words are then patched in place, nframes counted back from
// the appended groups. Encoding is deterministic: map-backed groups (sample
// channels, viz params) are emitted in sorted key order.
func encodeEnvelope(buf []byte, e *envelope) ([]byte, error) {
	buf = wire.AppendInt64s(buf, tagHeader, []int64{ //steer:allow hotpathalloc non-escaping literal the compiler stack-allocates; BenchmarkBroadcastHotPath proves 0 allocs/op
		ProtoVersion, int64(e.Type), int64(e.Seq), 0, 0, 0,
	})
	body := len(buf)
	var flags, aux int64
	switch e.Type {
	case msgAttach: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		a := e.Attach
		if a == nil {
			a = &attachMsg{}
		}
		if a.WantMaster {
			flags |= flagWantMaster
		}
		aux = a.Priority
		strs := make([]string, 0, 2+len(a.Subs))
		strs = append(strs, a.Name, a.Session)
		ext := make([]int64, 0, 3+len(a.Subs))
		ext = append(ext, int64(a.Tier), int64(a.Replay), int64(len(a.Subs)))
		for _, sub := range a.Subs {
			strs = append(strs, sub.Name)
			ext = append(ext, int64(sub.Kind))
		}
		buf = wire.AppendStrings(buf, tagStrs, strs)
		buf = wire.AppendInt64s(buf, tagAttachExt, ext)
	case msgWelcome: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		w := e.Welcome
		if w == nil {
			//steer:allow hotpathalloc malformed-envelope error path aborts the broadcast before any fan-out
			return nil, fmt.Errorf("%w: welcome without payload", errMalformed)
		}
		aux = int64(w.Role)
		buf = wire.AppendStrings(buf, tagStrs, []string{w.SessionName, w.AppName, w.ClientName, w.Master})
		buf = appendParams(buf, w.Params)
		buf = wire.AppendInt64s(buf, tagFloor, []int64{
			w.LeaseMillis, int64(w.Policy), int64(w.FloorSeq),
			int64(w.Tier), w.ObserverMillis, ProtoVersion,
		})
		if w.View != nil {
			flags |= flagHasView
			buf = appendView(buf, w.View)
		}
	case msgSample:
		if e.Sample == nil {
			//steer:allow hotpathalloc malformed-envelope error path aborts the broadcast before any fan-out
			return nil, fmt.Errorf("%w: sample without payload", errMalformed)
		}
		buf = appendSample(buf, e.Sample)
	case msgBlob:
		if e.Blob == nil {
			//steer:allow hotpathalloc malformed-envelope error path aborts the broadcast before any fan-out
			return nil, fmt.Errorf("%w: blob without payload", errMalformed)
		}
		buf = appendBlob(buf, e.Blob)
	case msgSetParam:
		buf = appendSets(buf, e.Sets)
	case msgParamUpdate:
		buf = appendParams(buf, e.Params)
	case msgSetView, msgViewUpdate:
		if e.View == nil {
			//steer:allow hotpathalloc malformed-envelope error path aborts the broadcast before any fan-out
			return nil, fmt.Errorf("%w: view message without view", errMalformed)
		}
		flags |= flagHasView
		buf = appendView(buf, e.View)
	case msgMasterChanged:
		aux = int64(e.Reason)
		fallthrough
	case msgHandoffMaster: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		buf = wire.AppendStrings(buf, tagStrs, []string{e.Target})
	case msgEvent: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		buf = wire.AppendStrings(buf, tagStrs, []string{e.Event})
	case msgSubscribe, msgUnsubscribe: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		if e.Type == msgSubscribe && e.SubAll {
			flags |= flagSubAll
		}
		names := make([]string, 0, len(e.Subs))
		kinds := make([]int64, 0, len(e.Subs))
		for _, sub := range e.Subs {
			names = append(names, sub.Name)
			kinds = append(kinds, int64(sub.Kind))
		}
		buf = wire.AppendStrings(buf, tagStrs, names)
		buf = wire.AppendInt64s(buf, tagSub, kinds)
	case msgAck: //steer:allow hotpathalloc control-plane case; the steady-state sample path takes msgSample
		msg := ""
		if e.Ack != nil {
			if e.Ack.OK {
				flags |= flagAckOK
			}
			aux, msg = int64(e.Ack.Code), e.Ack.Err
		}
		buf = wire.AppendStrings(buf, tagStrs, []string{msg})
	case msgCommand:
		aux = int64(e.Command)
	case msgRequestMaster:
		if e.NoWait {
			flags |= flagNoWait
		}
		if e.Steal {
			flags |= flagSteal
		}
	case msgReleaseMaster, msgHeartbeat, msgDetach:
	default:
		//steer:allow hotpathalloc malformed-envelope error path aborts the broadcast before any fan-out
		return nil, fmt.Errorf("%w: type %d", errMalformed, e.Type)
	}
	binary.BigEndian.PutUint64(buf[body-24:body-16], uint64(flags))
	binary.BigEndian.PutUint64(buf[body-16:body-8], uint64(aux))
	binary.BigEndian.PutUint64(buf[body-8:body], uint64(wire.CountFrames(buf[body:])))
	return buf, nil
}

// appendParams emits the three-frame parameter group.
//
//steer:coldpath control-plane encode (welcome/param-update), never on the sample path
func appendParams(buf []byte, params []Param) []byte {
	n := len(params)
	meta := make([]int64, 0, 4*n)
	nums := make([]float64, 0, 3*n)
	strs := make([]string, 0, 3*n)
	for i := range params {
		p := &params[i]
		vk, vi, vf, vs := valueLanes(p.Value)
		meta = append(meta, int64(p.Type), vk, vi, int64(len(p.Choices)))
		nums = append(nums, vf, p.Min, p.Max)
		strs = append(strs, p.Name, p.Help, vs)
		strs = append(strs, p.Choices...)
	}
	buf = wire.AppendInt64s(buf, tagParamMeta, meta)
	buf = wire.AppendFloat64s(buf, tagParamNum, nums)
	return wire.AppendStrings(buf, tagParamStr, strs)
}

// parseParams assembles the parameter group back into []Param.
func parseParams(meta []int64, nums []float64, strs []string) ([]Param, error) {
	if len(meta)%4 != 0 {
		return nil, fmt.Errorf("%w: param meta count %d", errMalformed, len(meta))
	}
	n := len(meta) / 4
	if len(nums) != 3*n {
		return nil, fmt.Errorf("%w: param nums count %d for %d params", errMalformed, len(nums), n)
	}
	params := make([]Param, 0, n)
	cursor := 0
	for i := 0; i < n; i++ {
		ptype, vk, vi, nch := meta[4*i], meta[4*i+1], meta[4*i+2], meta[4*i+3]
		// Bound nch in int64 space before any int conversion: a hostile
		// count near MaxInt64 must not wrap the slice arithmetic below.
		if nch < 0 || nch > int64(len(strs)-cursor-3) {
			return nil, fmt.Errorf("%w: param strings exhausted", errMalformed)
		}
		v, err := valueFromLanes(vk, vi, nums[3*i], strs[cursor+2])
		if err != nil {
			return nil, err
		}
		p := Param{
			Name:  strs[cursor],
			Type:  ParamType(ptype),
			Value: v,
			Min:   nums[3*i+1],
			Max:   nums[3*i+2],
			Help:  strs[cursor+1],
		}
		if nch > 0 {
			p.Choices = append([]string(nil), strs[cursor+3:cursor+3+int(nch)]...)
		}
		cursor += 3 + int(nch)
		params = append(params, p)
	}
	if cursor != len(strs) {
		return nil, fmt.Errorf("%w: %d trailing param strings", errMalformed, len(strs)-cursor)
	}
	return params, nil
}

// appendSets emits the three-frame assignment group of a SetParams batch.
//
//steer:coldpath control-plane encode (set-param), never on the sample path
func appendSets(buf []byte, sets []ParamSet) []byte {
	n := len(sets)
	meta := make([]int64, 0, 2*n)
	nums := make([]float64, 0, n)
	strs := make([]string, 0, 2*n)
	for i := range sets {
		vk, vi, vf, vs := valueLanes(sets[i].Value)
		meta = append(meta, vk, vi)
		nums = append(nums, vf)
		strs = append(strs, sets[i].Name, vs)
	}
	buf = wire.AppendInt64s(buf, tagSetMeta, meta)
	buf = wire.AppendFloat64s(buf, tagSetNum, nums)
	return wire.AppendStrings(buf, tagSetStr, strs)
}

// parseSets assembles the assignment group back into []ParamSet.
func parseSets(meta []int64, nums []float64, strs []string) ([]ParamSet, error) {
	n := len(nums)
	if len(meta) != 2*n || len(strs) != 2*n {
		return nil, fmt.Errorf("%w: set group counts %d/%d/%d", errMalformed, len(meta), n, len(strs))
	}
	sets := make([]ParamSet, 0, n)
	for i := 0; i < n; i++ {
		v, err := valueFromLanes(meta[2*i], meta[2*i+1], nums[i], strs[2*i+1])
		if err != nil {
			return nil, err
		}
		sets = append(sets, ParamSet{Name: strs[2*i], Value: v})
	}
	return sets, nil
}

// appendView emits the three-frame view group.
//
//steer:coldpath control-plane encode (view update), never on the sample path
func appendView(buf []byte, v *ViewState) []byte {
	keys := make([]string, 0, len(v.VizParams))
	for k := range v.VizParams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = wire.AppendInt64s(buf, tagViewMeta, []int64{int64(v.Seq), int64(len(keys))})
	buf = wire.AppendHeader(buf, tagViewNums, wire.KindFloat64, 10+len(keys))
	for _, x := range [...]float64{
		v.Eye[0], v.Eye[1], v.Eye[2],
		v.Center[0], v.Center[1], v.Center[2],
		v.Up[0], v.Up[1], v.Up[2],
		v.FovY,
	} {
		buf = wire.AppendFloat64(buf, x)
	}
	for _, k := range keys {
		buf = wire.AppendFloat64(buf, v.VizParams[k])
	}
	return wire.AppendStrings(buf, tagViewKeys, keys)
}

// parseView assembles the view group back into a ViewState.
func parseView(meta []int64, nums []float64, keys []string) (*ViewState, error) {
	if len(meta) != 2 {
		return nil, fmt.Errorf("%w: view meta count %d", errMalformed, len(meta))
	}
	// Trust only the actual frame lengths; the declared count must agree.
	nviz := len(keys)
	if int64(nviz) != meta[1] || len(nums) != 10+nviz {
		return nil, fmt.Errorf("%w: view group counts %d/%d", errMalformed, len(nums), len(keys))
	}
	v := &ViewState{
		Seq:       uint64(meta[0]),
		Eye:       [3]float64{nums[0], nums[1], nums[2]},
		Center:    [3]float64{nums[3], nums[4], nums[5]},
		Up:        [3]float64{nums[6], nums[7], nums[8]},
		FovY:      nums[9],
		VizParams: make(map[string]float64, nviz),
	}
	for i, k := range keys {
		v.VizParams[k] = nums[10+i]
	}
	return v, nil
}

// sampleScratchChans sizes appendSample's stack scratch: samples with at
// most this many channels (every steered demo, and any sane emitter)
// serialize with zero slice allocations, which is what keeps the broadcast
// hot path allocation-free.
const sampleScratchChans = 16

// appendSample emits the sample group: meta, names, then one data frame per
// channel in name order.
func appendSample(buf []byte, s *Sample) []byte {
	var nameScratch [sampleScratchChans]string
	names := nameScratch[:0]
	if len(s.Channels) > len(nameScratch) {
		//steer:allow hotpathalloc oversized-sample cold branch; <= sampleScratchChans channels stay on the stack
		names = make([]string, 0, len(s.Channels))
	}
	for k := range s.Channels {
		names = append(names, k)
	}
	sort.Strings(names)
	var metaScratch [2 + 3*sampleScratchChans]int64
	meta := metaScratch[:0]
	if len(names) > sampleScratchChans {
		//steer:allow hotpathalloc oversized-sample cold branch; <= sampleScratchChans channels stay on the stack
		meta = make([]int64, 0, 2+3*len(names))
	}
	meta = append(meta, s.Step, int64(len(names)))
	for _, k := range names {
		ch := s.Channels[k]
		meta = append(meta, int64(ch.Dims[0]), int64(ch.Dims[1]), int64(ch.Dims[2]))
	}
	buf = wire.AppendInt64s(buf, tagSampleMeta, meta)
	buf = wire.AppendStrings(buf, tagSampleName, names)
	for _, k := range names {
		buf = wire.AppendFloat64s(buf, tagSampleData, s.Channels[k].Data)
	}
	return buf
}

// parseSample assembles the sample group back into a Sample. The data
// frames may live in decode scratch, so they are copied out into one
// backing array the sample owns; each channel gets a capacity-capped window
// of it, so appending to one channel's Data cannot overwrite another's.
func parseSample(meta []int64, names []string, data [][]float64) (*Sample, error) {
	if len(meta) < 2 {
		return nil, fmt.Errorf("%w: sample meta count %d", errMalformed, len(meta))
	}
	// Trust only the actual frame lengths; the declared count must agree.
	n := len(names)
	if int64(n) != meta[1] || len(meta) != 2+3*n || len(data) != n {
		return nil, fmt.Errorf("%w: sample group counts %d/%d/%d", errMalformed, len(meta), len(names), len(data))
	}
	total := 0
	for _, d := range data {
		total += len(d)
	}
	backing := make([]float64, total)
	s := &Sample{Step: meta[0], Channels: make(map[string]Channel, n)}
	for i, name := range names {
		d := backing[:len(data[i]):len(data[i])]
		backing = backing[len(d):]
		copy(d, data[i])
		s.Channels[name] = Channel{
			Dims: [3]int{int(meta[2+3*i]), int(meta[3+3*i]), int(meta[4+3*i])},
			Data: d,
		}
	}
	return s, nil
}

// appendBlob emits the blob group: the stream name, the fixed descriptor,
// then the payload as a single wire bytes element. The payload is appended
// byte-for-byte — no per-pixel framing — so the encoded frame's dominant
// cost is one memcpy into the (size-classed) pooled buffer, after which
// fan-out and the writev egress are copy-free.
//
//steer:hotpath
func appendBlob(buf []byte, b *Blob) []byte {
	buf = wire.AppendStrings(buf, tagStrs, []string{b.Stream}) //steer:allow hotpathalloc non-escaping literal the compiler stack-allocates, same as the header frame
	buf = wire.AppendInt64s(buf, tagBlobMeta, []int64{         //steer:allow hotpathalloc non-escaping literal the compiler stack-allocates, same as the header frame
		int64(b.Seq), b.Encoding, int64(b.Width), int64(b.Height), b.Flags, int64(len(b.Data)),
	})
	//steer:allow hotpathalloc broadcastBlob pre-sizes the frame with Blob.ByteSize, so the payload append never grows a warm pooled buffer
	return wire.AppendBytes(buf, tagBlobData, b.Data)
}

// parseBlob assembles the blob group back into a Blob. The data slice is
// the decoder's exact-size allocation for it, never scratch: callers that
// retain it past the envelope dispatch own it outright.
func parseBlob(strs []string, meta []int64, data [][]byte) (*Blob, error) {
	if len(meta) != 6 || len(data) != 1 {
		return nil, fmt.Errorf("%w: blob group counts %d/%d", errMalformed, len(meta), len(data))
	}
	if meta[5] != int64(len(data[0])) {
		return nil, fmt.Errorf("%w: blob declares %d bytes, carries %d", errMalformed, meta[5], len(data[0]))
	}
	if len(strs) < 1 {
		return nil, fmt.Errorf("%w: blob without stream name", errMalformed)
	}
	return &Blob{
		Stream:   strs[0],
		Seq:      uint64(meta[0]),
		Encoding: meta[1],
		Width:    int(meta[2]),
		Height:   int(meta[3]),
		Flags:    meta[4],
		Data:     data[0],
	}, nil
}

// ---- decoding ----

// scratchRetainBytes bounds the decode scratch an envScratch keeps between
// envelopes. A larger envelope (a bulk sample of more than ~8k values, or a
// hostile frame at the client side's generous limits) grows the arenas as
// it needs, and they are dropped once it is decoded instead of being pinned
// for the life of the connection.
const scratchRetainBytes = 64 << 10

// envScratch is the storage decodeEnvelope reads field frames into, one
// arena per payload kind the envelope uses, reused from envelope to
// envelope. A codec owns one for its connection. Nothing in it outlives the
// decodeEnvelope call that filled it: what an envelope hands on is copied
// out (sample data), separately allocated (blob data) or immutable and
// shared (strings, interned by the wire decoder). Blob slots hold the
// decoder's fresh allocations only until the envelope takes them.
type envScratch struct {
	ints   []int64
	floats []float64
	strs   []string
	blobs  [][]byte
	// smData holds the sample's data frames, windows on floats.
	smData [][]float64
	// groups holds the other field frames, each in the slot of its tag
	// (tag-tagHeader). At 3.5 KB it stays off decodeEnvelope's stack
	// frame, which every connection's reader goroutine carries.
	groups [tagBlobData - tagHeader + 1]wire.Message
}

// next reads one frame's header and payload into m, the payload into the
// arenas. The payload slices are capacity-capped windows, so a later
// frame's append cannot write into them. Kinds no field group uses (int32,
// float32, bool) are read into a throwaway message: the stream stays framed
// and the envelope budget still counts them.
func (sc *envScratch) next(dec *wire.Decoder, m *wire.Message) error {
	h, err := dec.ReadHeader()
	if err != nil {
		return err
	}
	*m = wire.Message{Header: h}
	switch h.Kind {
	case wire.KindInt64:
		start := len(sc.ints)
		sc.ints, err = dec.ReadInt64s(sc.ints, h)
		m.Int64s = sc.ints[start:len(sc.ints):len(sc.ints)]
	case wire.KindFloat64:
		start := len(sc.floats)
		sc.floats, err = dec.ReadFloat64s(sc.floats, h)
		m.Float64s = sc.floats[start:len(sc.floats):len(sc.floats)]
	case wire.KindString:
		start := len(sc.strs)
		sc.strs, err = dec.ReadStrings(sc.strs, h)
		m.Strings = sc.strs[start:len(sc.strs):len(sc.strs)]
	case wire.KindBytes:
		start := len(sc.blobs)
		sc.blobs, err = dec.ReadBlobs(sc.blobs, h)
		m.Blobs = sc.blobs[start:len(sc.blobs):len(sc.blobs)]
	default:
		var p *wire.Message
		if p, err = dec.ReadPayload(h); err == nil {
			*m = *p
		}
	}
	return err
}

// reset empties the scratch for the next envelope: string, blob,
// sample-data and group slots drop their references (a long string or a
// blob must not stay reachable from the connection), the framedebug build
// poisons the arenas so a window that escaped without a copy reads garbage,
// and arenas one envelope grew past scratchRetainBytes go back to the
// collector.
func (sc *envScratch) reset() {
	clear(sc.strs)
	clear(sc.blobs)
	clear(sc.smData)
	clear(sc.groups[:])
	poisonScratch(sc)
	if sc.retained() > scratchRetainBytes {
		*sc = envScratch{}
		return
	}
	sc.ints, sc.floats, sc.strs = sc.ints[:0], sc.floats[:0], sc.strs[:0]
	sc.blobs, sc.smData = sc.blobs[:0], sc.smData[:0]
}

// retained is the scratch's footprint in bytes: its arenas' capacities.
func (sc *envScratch) retained() int {
	return 8*cap(sc.ints) + 8*cap(sc.floats) + 16*cap(sc.strs) + 24*cap(sc.blobs) + 24*cap(sc.smData)
}

// decodeEnvelope reads one envelope from dec into sc, refusing to retain
// more than budget payload bytes across its field frames, and leaves sc
// empty for the next one. A bad magic maps to ErrVersionMismatch: the
// stream is not this protocol at all (a gob v1 client, an HTTP probe...).
// A header version other than ProtoVersion also fails with
// ErrVersionMismatch, wrapped with the offered version.
func decodeEnvelope(dec *wire.Decoder, budget int, sc *envScratch) (*envelope, error) {
	defer sc.reset()
	var m wire.Message
	if err := sc.next(dec, &m); err != nil {
		if errors.Is(err, wire.ErrBadMagic) {
			return nil, fmt.Errorf("%w: %v", ErrVersionMismatch, err)
		}
		return nil, err
	}
	if m.Header.Tag != tagHeader || m.Header.Kind != wire.KindInt64 || len(m.Int64s) < 6 {
		return nil, fmt.Errorf("%w: expected envelope header, got tag %d", errMalformed, m.Header.Tag)
	}
	h := m.Int64s
	if version := h[0]; version != ProtoVersion {
		return nil, fmt.Errorf("%w: peer speaks v%d, this endpoint speaks v%d",
			ErrVersionMismatch, version, ProtoVersion)
	}
	nframes := h[5]
	if nframes < 0 || nframes > maxEnvelopeFrames {
		return nil, fmt.Errorf("%w: %d field frames", errMalformed, nframes)
	}
	e := &envelope{
		Type: msgType(h[1]),
		Seq:  uint64(h[2]),
	}
	flags, aux := h[3], h[4]

	// Field frames land in the slot of their tag, the last one of a tag
	// winning; tagSampleData repeats once per channel. Unknown tags (a newer
	// minor revision's field groups) are skipped.
	for i := int64(0); i < nframes; i++ {
		if err := sc.next(dec, &m); err != nil {
			return nil, err
		}
		if budget -= messageBytes(&m); budget < 0 {
			return nil, fmt.Errorf("%w: envelope exceeds payload budget", errMalformed)
		}
		if m.Header.Tag == tagSampleData {
			sc.smData = append(sc.smData, m.Float64s)
		} else if slot := m.Header.Tag - tagHeader; slot < uint32(len(sc.groups)) {
			sc.groups[slot] = m
		}
	}
	group := func(tag uint32) *wire.Message { return &sc.groups[tag-tagHeader] }
	strs := group(tagStrs).Strings
	str := func(i int) string {
		if i < len(strs) {
			return strs[i]
		}
		return ""
	}
	var err error
	switch e.Type {
	case msgAttach:
		attachExt := group(tagAttachExt).Int64s
		if len(attachExt) < 3 {
			return nil, fmt.Errorf("%w: attach extension count %d", errMalformed, len(attachExt))
		}
		nsubs := attachExt[2]
		if nsubs != int64(len(attachExt)-3) || nsubs > int64(len(strs)-2) {
			return nil, fmt.Errorf("%w: attach extension counts %d/%d/%d", errMalformed, len(attachExt), nsubs, len(strs))
		}
		tier, replay := attachExt[0], attachExt[1]
		if tier < int64(TierSteering) || tier > int64(TierObserver) {
			return nil, fmt.Errorf("%w: delivery tier %d", errMalformed, tier)
		}
		if replay < int64(ReplayAll) || replay > int64(ReplayNone) {
			return nil, fmt.Errorf("%w: replay policy %d", errMalformed, replay)
		}
		e.Attach = &attachMsg{
			Name: str(0), Session: str(1),
			WantMaster: flags&flagWantMaster != 0,
			Priority:   aux,
			Tier:       Tier(tier),
			Replay:     ReplayPolicy(replay),
		}
		if nsubs > 0 {
			e.Attach.Subs = make([]Subscription, 0, nsubs)
			for i := int64(0); i < nsubs; i++ {
				sub, err := subscriptionFromLanes(attachExt[3+i], strs[2+i])
				if err != nil {
					return nil, err
				}
				e.Attach.Subs = append(e.Attach.Subs, sub)
			}
		}
	case msgWelcome:
		floorMeta := group(tagFloor).Int64s
		if len(floorMeta) != 6 || floorMeta[5] != ProtoVersion {
			return nil, fmt.Errorf("%w: welcome advertisement %v", errMalformed, floorMeta)
		}
		params, err := parseParams(group(tagParamMeta).Int64s, group(tagParamNum).Float64s, group(tagParamStr).Strings)
		if err != nil {
			return nil, err
		}
		w := &welcomeMsg{
			SessionName: str(0), AppName: str(1), ClientName: str(2), Master: str(3),
			Role:           Role(aux),
			Params:         params,
			LeaseMillis:    floorMeta[0],
			Policy:         FloorPolicy(floorMeta[1]),
			FloorSeq:       uint64(floorMeta[2]),
			Tier:           Tier(floorMeta[3]),
			ObserverMillis: floorMeta[4],
		}
		if flags&flagHasView != 0 {
			if w.View, err = parseView(group(tagViewMeta).Int64s, group(tagViewNums).Float64s, group(tagViewKeys).Strings); err != nil {
				return nil, err
			}
		}
		e.Welcome = w
	case msgSample:
		if e.Sample, err = parseSample(group(tagSampleMeta).Int64s, group(tagSampleName).Strings, sc.smData); err != nil {
			return nil, err
		}
	case msgBlob:
		if e.Blob, err = parseBlob(strs, group(tagBlobMeta).Int64s, group(tagBlobData).Blobs); err != nil {
			return nil, err
		}
	case msgSetParam:
		if e.Sets, err = parseSets(group(tagSetMeta).Int64s, group(tagSetNum).Float64s, group(tagSetStr).Strings); err != nil {
			return nil, err
		}
	case msgParamUpdate:
		if e.Params, err = parseParams(group(tagParamMeta).Int64s, group(tagParamNum).Float64s, group(tagParamStr).Strings); err != nil {
			return nil, err
		}
	case msgSetView, msgViewUpdate:
		if flags&flagHasView == 0 {
			return nil, fmt.Errorf("%w: view message without view", errMalformed)
		}
		if e.View, err = parseView(group(tagViewMeta).Int64s, group(tagViewNums).Float64s, group(tagViewKeys).Strings); err != nil {
			return nil, err
		}
	case msgCommand:
		e.Command = commandKind(aux)
	case msgHandoffMaster:
		e.Target = str(0)
	case msgMasterChanged:
		e.Target = str(0)
		e.Reason = FloorReason(aux)
	case msgEvent:
		e.Event = str(0)
	case msgAck:
		e.Ack = &ackMsg{OK: flags&flagAckOK != 0, Code: errCode(aux), Err: str(0)}
	case msgRequestMaster:
		e.NoWait = flags&flagNoWait != 0
		e.Steal = flags&flagSteal != 0
	case msgSubscribe, msgUnsubscribe:
		sel := group(tagSub)
		if sel.Header.Tag != tagSub || len(sel.Int64s) != len(strs) {
			return nil, fmt.Errorf("%w: subscribe selector counts %d/%d", errMalformed, len(sel.Int64s), len(strs))
		}
		e.SubAll = e.Type == msgSubscribe && flags&flagSubAll != 0
		if len(sel.Int64s) > 0 {
			e.Subs = make([]Subscription, 0, len(sel.Int64s))
			for i, kind := range sel.Int64s {
				sub, err := subscriptionFromLanes(kind, strs[i])
				if err != nil {
					return nil, err
				}
				e.Subs = append(e.Subs, sub)
			}
		}
	case msgReleaseMaster, msgHeartbeat, msgDetach:
	default:
		return nil, fmt.Errorf("%w: message type %d", errMalformed, e.Type)
	}
	return e, nil
}
