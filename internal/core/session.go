package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// SessionConfig configures a steering session.
type SessionConfig struct {
	// Name identifies the session in registries and welcomes.
	Name string
	// AppName is the instrumented application's name.
	AppName string
	// SampleQueue bounds the per-client outbound sample queue; when a slow
	// client falls behind, its oldest queued samples are dropped (the VISIT
	// no-stall rule). 0 selects a default of 16.
	SampleQueue int
	// ControlTimeout bounds writes of control traffic to a client; a client
	// that cannot accept control messages within it is declared dead.
	// 0 selects a default of 2s.
	ControlTimeout time.Duration
	// Writer, when non-nil, replaces the per-client writer goroutine with an
	// external scheduler (a hub's per-shard writer pool): the session signals
	// ClientReady after queueing output and the scheduler drains via
	// ClientHandle.DrainBatch. Nil keeps the classic one-goroutine-per-client
	// draining.
	Writer WriterScheduler
	// Journal, when non-nil, receives every broadcast envelope's encoded
	// bytes (the same buffer queued to clients — journaling never
	// re-encodes) and replays recorded events and samples to late joiners
	// during attach. internal/journal's Journal is the durable
	// implementation; the session does not own the sink's lifecycle.
	Journal JournalSink
	// FloorPolicy arbitrates contested master requests: FIFO queueing,
	// priority queueing, or FIFO plus administrative steal. The zero value
	// (FloorUnset) resolves to FloorFIFO — or to a hub's configured
	// session default first.
	FloorPolicy FloorPolicy
	// FanoutWorkers sets the number of observer-tier relay workers (see
	// relay.go); they start lazily on the first TierObserver attach. 0
	// selects min(4, GOMAXPROCS); negative forces a single worker.
	FanoutWorkers int
	// ObserverInterval is the longest unprompted spacing between
	// observer-tier flushes: relay workers deliver continuously, but wake an
	// observer's writer at most once per interval, so under a dense stream
	// its ring coalesces to freshest-wins batches. It is a rate limit, not a
	// delay — a frame arriving an interval or more after the last flush
	// leaves at once, and steer-caused frames are not held (see relay.go).
	// Parameter updates toward observers are subject to it as well: one
	// with no sample behind it (a paused or rarely emitting application)
	// leaves under the same limit, so an observer's parameter view can be
	// up to one interval stale.
	// 0 selects 25ms; negative disables coalescing (observers are flushed
	// per frame, like the steering tier but off the session goroutine).
	ObserverInterval time.Duration
	// CoalesceBytes is the vectored egress hybrid threshold: when a batch
	// takes the writev path, frames shorter than this are gathered
	// (copied) into one shared iovec entry while frames at or above it
	// ride as their own zero-copy entries. 0 selects ~1KB; negative
	// disables gathering (every frame its own iovec entry). Conns without
	// vectored-write support ignore it — they keep the buffered fallback.
	CoalesceBytes int
	// MasterLease bounds how long the master may go silent before the
	// session's maintenance sweep takes the floor away: a wedged or
	// partitioned master loses it within 1.25×MasterLease of its last
	// inbound frame. The welcome advertises the lease so clients heartbeat
	// at a third of it. <= 0 disables lease expiry (pass a negative value
	// to disable explicitly on a hub whose session defaults set a lease).
	MasterLease time.Duration
	// Clock overrides the session's time source; nil means time.Now. Only
	// lease bookkeeping reads it — deterministic expiry tests inject a
	// virtual clock here.
	Clock func() time.Time
}

// Session is the hub connecting one steered application with any number of
// collaborating clients. Create it with NewSession, hand its Steered handle
// to the simulation loop, and feed client connections to ServeConn (or
// Serve with a listener).
type Session struct {
	cfg SessionConfig

	params *paramTable

	// attachMu is the journal attach barrier: broadcasts hold it shared
	// around record+enqueue, an attach holds it exclusively around
	// catch-up-fetch+admit. A frame therefore reaches an attaching client
	// exactly once — in the journal replay (recorded before the fetch) or
	// in its live queue (enqueued after admission), never both. Only taken
	// when a Journal is configured.
	attachMu sync.RWMutex
	// recovering mutes the journal tap while Recover replays the log:
	// apply callbacks that broadcast (an event echoing a parameter change)
	// must not re-journal their echo on every restart.
	recovering atomic.Bool
	// closing mutes broadcasts once Close has begun: a frame emitted after
	// the clients' connections are torn down reaches nobody, so journaling
	// it would replay ghost history to the session's next generation.
	// Close stores it under the exclusive attach barrier, so a broadcast
	// holding the shared side either fully completes first (delivered and
	// journaled) or observes the flag and drops both — never a ghost.
	closing atomic.Bool

	mu      sync.Mutex
	clients map[string]*clientConn
	order   []string // attach order, for deterministic master promotion
	master  string   // "" when no master
	floor   floorState
	view    ViewState
	viewSeq uint64
	nextID  int

	// clientsView is the broadcast path's read-copy-update snapshot of the
	// attached clients: an immutable slice swapped atomically by
	// attach/detach (which still serialise on s.mu). Broadcasts only load
	// it, so the fan-out never touches s.mu — the registration lock is paid
	// at membership-change rate, not message rate.
	clientsView atomic.Pointer[[]*clientConn]

	// steerView/obsView partition the same snapshot by delivery tier:
	// sample fan-out walks steerView inline and hands the frame to the
	// relay workers only when obsView is non-empty. Tier is fixed at
	// attach, so the partition changes exactly when clientsView does.
	steerView atomic.Pointer[[]*clientConn]
	obsView   atomic.Pointer[[]*clientConn]

	// relay is the observer-tier worker pool, started lazily by the first
	// observer admit (ensureRelayLocked) and loaded lock-free by fanout.
	relay atomic.Pointer[relay]

	// steerEpoch counts applied steering batches; pushedSample/pushedBlob
	// are the epochs the last push-stamped frame of each class carried. A
	// broadcast that finds its class behind the epoch is the first since a
	// steer and is stamped FrameBuf.push (stampPush).
	steerEpoch   atomic.Uint64
	pushedSample atomic.Uint64
	pushedBlob   atomic.Uint64

	// application-side state
	pending           chan pendingOp // steering ops awaiting the next poll
	paused            bool
	stopped           bool
	checkpointPending bool
	resumeCh          chan struct{}

	// Hot-path activity counters: touched on every broadcast, so they are
	// atomics — Stats readers never contend with (or block) a fan-out.
	statSamplesEmitted   atomic.Uint64
	statSamplesDelivered atomic.Uint64
	statSamplesDropped   atomic.Uint64
	statSteersApplied    atomic.Uint64
	statSteersRejected   atomic.Uint64
	// statFramesFiltered counts deliveries skipped by interest matching
	// (both tiers, samples and param updates alike).
	statFramesFiltered atomic.Uint64
	// statRelayPublished/Coalesced count frames handed to the relay pool
	// and frames its input rings coalesced away before fan-out.
	statRelayPublished atomic.Uint64
	statRelayCoalesced atomic.Uint64
	// statRelayPushed counts relay-worker flushes a push-stamped frame
	// caused ahead of the interval.
	statRelayPushed atomic.Uint64
	// statBlobsEmitted/statBlobBytes count blob-class broadcasts and their
	// payload bytes (deliveries and drops share the sample counters — the
	// tiers make no distinction past the proto gate).
	statBlobsEmitted atomic.Uint64
	statBlobBytes    atomic.Uint64
	// egress is the vectored-egress counter block shared by every admitted
	// client's codec (injected at admit, read by Stats).
	egress egressStats

	// lastSample retains the most recent emission for pull-style consumers
	// (the OGSI steering service's sample operation).
	lastSample atomic.Pointer[Sample]

	closed  bool
	closeCh chan struct{}
}

// Stats counts session activity; the experiments read these.
type Stats struct {
	SamplesEmitted   uint64
	SamplesDelivered uint64
	SamplesDropped   uint64
	SteersApplied    uint64
	SteersRejected   uint64
	// FramesFiltered counts deliveries skipped because the frame matched
	// nothing in the client's interest set.
	FramesFiltered uint64
	// RelayPublished counts sample frames handed to the observer relay
	// pool; RelayCoalesced counts frames its input rings overwrote before
	// fan-out (freshest-wins under overload). RelayPushed counts push
	// flushes: a relay worker waking its observers' writers ahead of
	// ObserverInterval because a steer's first frame arrived — one per
	// worker with something to flush, however many observers it woke; the
	// rest of the observer tier's flushes were interval flushes.
	RelayPublished uint64
	RelayCoalesced uint64
	RelayPushed    uint64
	// BlobsEmitted/BlobBytes count blob-class broadcasts (protocol v5 bulk
	// frames) and their payload bytes; their deliveries and drops share
	// SamplesDelivered/SamplesDropped.
	BlobsEmitted uint64
	BlobBytes    uint64
	// Vectored-egress activity: batches by path taken, small frames (and
	// bytes) gathered into the shared coalesce iovec, large-frame bytes
	// handed to the kernel without a copy, and the estimated Write
	// syscalls the buffered fallback would have needed beyond the writev
	// each vectored batch actually issued.
	EgressBatchesVectored uint64
	EgressBatchesBuffered uint64
	EgressFramesCoalesced uint64
	EgressBytesCoalesced  uint64
	EgressBytesZeroCopy   uint64
	EgressSyscallsSaved   uint64
}

// pendingOp is a steering operation queued for the simulation's next poll.
type pendingOp struct {
	sets []ParamSet
	cmd  commandKind
}

// clientConn is the session's view of one attached client.
type clientConn struct {
	name  string
	codec *codec
	// desc is the immutable delivery descriptor (tier + interest set),
	// swapped copy-on-write by the client's subscribe/unsubscribe dispatch;
	// fan-out paths Load it. Nil means subscribe-all at TierSteering (see
	// clientDesc).
	desc atomic.Pointer[clientDesc]
	// proto is the protocol version the client attached with; handshake
	// replies and acks are encoded at it (negotiated downgrade).
	proto uint32
	// wantMaster records that the client attached asking for mastership;
	// drop promotion prefers such clients over pure observers.
	wantMaster bool
	// priority orders the client's floor requests under the priority policy.
	priority int64
	// lastBeat is the UnixNano of the client's last inbound frame — the
	// master lease renewal. Written by the read loop, read by the
	// maintenance sweep, hence atomic; never touched on the broadcast path.
	lastBeat atomic.Int64
	// out is the bounded sample queue; when full the oldest sample is
	// overwritten in place so a slow client sees the freshest data. ctrl is
	// the separate control-frame queue, drained with priority, so a sample
	// burst can never starve or evict an event, param update or master
	// change. Synchronous acks bypass both with a deadline write. Both
	// queues are rings of refcounted *FrameBuf: a broadcast serializes once
	// into a pooled buffer and every queue slot holds a reference to it
	// (encode-once, allocate-rarely fan-out).
	out     *frameRing
	ctrl    *frameRing
	dropped atomic.Uint64
	// ready wakes the dedicated writer goroutine (capacity-1 wakeup token);
	// unused when an external WriterScheduler drains the client.
	ready    chan struct{}
	gone     chan struct{}
	goneOnce sync.Once
	// welcomed flips once the welcome frame is on the wire; no writer —
	// dedicated or pooled — may drain the queues before then, or the client
	// would see a sample/control frame as its first post-attach message.
	welcomed atomic.Bool
	// stash overflows the ctrl queue while the client is pre-welcome on a
	// journaled session (the welcome + catch-up writes can outlast a
	// control burst): frames land here instead of being evicted — or the
	// client killed — and drain, in order, at the go-live handoff. Stashed
	// frames are retained; the drain (or the drop cleanup) releases them.
	stashMu     sync.Mutex
	stash       []*FrameBuf
	stashClosed bool
	// handle is the external-writer view of this client; nil when the
	// session drains queues with per-client goroutines.
	handle *ClientHandle
}

// markGone declares the client dead exactly once; the read loop and any
// writer observing gone will unwind and drop the client.
//
//steer:coldpath client teardown, runs once per connection death
func (cc *clientConn) markGone() {
	cc.goneOnce.Do(func() { close(cc.gone) })
}

// maxCtrlStash bounds the pre-welcome overflow stash; a client that falls
// this many control frames behind during its own attach is beyond saving.
const maxCtrlStash = 16384

// stashCtrl stores one pre-welcome overflow frame (retaining it), reporting
// false when the stash bound is exhausted or the client already dropped.
// Stashed references are released by takeStash's consumer or dropStash.
//
//steer:owns
func (cc *clientConn) stashCtrl(fb *FrameBuf) bool {
	cc.stashMu.Lock() //steer:allow hotpathalloc pre-welcome overflow only; per-client mutex guarding the stash slice
	defer cc.stashMu.Unlock()
	if cc.stashClosed || len(cc.stash) >= maxCtrlStash {
		return false
	}
	fb.Retain()
	cc.stash = append(cc.stash, fb)
	return true
}

// stashPending reports whether overflow frames are stashed; while true,
// later pre-welcome frames must also stash (not re-enter the ctrl queue)
// or the backlog drain would reorder them.
func (cc *clientConn) stashPending() bool {
	cc.stashMu.Lock() //steer:allow hotpathalloc pre-welcome overflow only; per-client mutex guarding the stash slice
	defer cc.stashMu.Unlock()
	return len(cc.stash) > 0
}

// takeStash empties the stash; the references transfer to the caller.
func (cc *clientConn) takeStash() []*FrameBuf {
	cc.stashMu.Lock()
	defer cc.stashMu.Unlock()
	stash := cc.stash
	cc.stash = nil
	return stash
}

// closeStash releases stashed frames and refuses future stashes; part of
// the drop cleanup.
func (cc *clientConn) closeStash() {
	cc.stashMu.Lock()
	cc.stashClosed = true
	stash := cc.stash
	cc.stash = nil
	cc.stashMu.Unlock()
	releaseFrames(stash)
}

// drainBacklog empties the pre-welcome control backlog in arrival order:
// the ctrl queue holds the older frames, the stash their overflow. The
// caller owns (and must release) the returned references.
func (cc *clientConn) drainBacklog() []*FrameBuf {
	backlog := cc.ctrl.drainInto(nil, 0)
	return append(backlog, cc.takeStash()...)
}

// NewSession creates a session ready to accept clients.
func NewSession(cfg SessionConfig) *Session {
	if cfg.SampleQueue <= 0 {
		cfg.SampleQueue = 16
	}
	if cfg.ControlTimeout <= 0 {
		cfg.ControlTimeout = 2 * time.Second
	}
	if cfg.FloorPolicy == FloorUnset {
		cfg.FloorPolicy = FloorFIFO
	}
	if cfg.MasterLease < 0 {
		// Negative means "explicitly disabled" to callers whose zero would
		// otherwise be filled in by a hub's session defaults.
		cfg.MasterLease = 0
	}
	if cfg.FanoutWorkers == 0 {
		cfg.FanoutWorkers = defaultFanoutWorkers()
	}
	if cfg.FanoutWorkers < 0 {
		cfg.FanoutWorkers = 1
	}
	if cfg.ObserverInterval == 0 {
		cfg.ObserverInterval = defaultObserverInterval
	}
	s := &Session{
		cfg:     cfg,
		params:  newParamTable(),
		clients: make(map[string]*clientConn),
		pending: make(chan pendingOp, 256),
		view: ViewState{
			Eye: [3]float64{1.8, 1.4, 2.2}, Center: [3]float64{0.5, 0.5, 0.5},
			Up: [3]float64{0, 1, 0}, FovY: 0.7854,
			VizParams: map[string]float64{},
		},
		resumeCh: make(chan struct{}),
		closeCh:  make(chan struct{}),
	}
	s.clientsView.Store(&[]*clientConn{})
	s.steerView.Store(&[]*clientConn{})
	s.obsView.Store(&[]*clientConn{})
	if cfg.MasterLease > 0 {
		go s.floorSweeper()
	}
	return s
}

// Name returns the session name.
func (s *Session) Name() string { return s.cfg.Name }

// Steered returns the application-side handle. See the Steered type.
func (s *Session) Steered() *Steered { return &Steered{s: s} }

// Params returns the current parameter table snapshot.
func (s *Session) Params() []Param { return s.params.snapshot() }

// Master returns the current master's client name, or "".
func (s *Session) Master() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.master
}

// Clients returns the attached client names in attach order.
func (s *Session) Clients() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Stats returns a copy of the activity counters. The counters are atomics
// maintained on the broadcast hot path, so the copy is a consistent-enough
// snapshot (each counter individually exact, the set read without a lock).
func (s *Session) Stats() Stats {
	return Stats{
		SamplesEmitted:   s.statSamplesEmitted.Load(),
		SamplesDelivered: s.statSamplesDelivered.Load(),
		SamplesDropped:   s.statSamplesDropped.Load(),
		SteersApplied:    s.statSteersApplied.Load(),
		SteersRejected:   s.statSteersRejected.Load(),
		FramesFiltered:   s.statFramesFiltered.Load(),
		RelayPublished:   s.statRelayPublished.Load(),
		RelayCoalesced:   s.statRelayCoalesced.Load(),
		RelayPushed:      s.statRelayPushed.Load(),
		BlobsEmitted:     s.statBlobsEmitted.Load(),
		BlobBytes:        s.statBlobBytes.Load(),

		EgressBatchesVectored: s.egress.batchesVectored.Load(),
		EgressBatchesBuffered: s.egress.batchesBuffered.Load(),
		EgressFramesCoalesced: s.egress.framesCoalesced.Load(),
		EgressBytesCoalesced:  s.egress.bytesCoalesced.Load(),
		EgressBytesZeroCopy:   s.egress.bytesZeroCopy.Load(),
		EgressSyscallsSaved:   s.egress.syscallsSaved.Load(),
	}
}

// TierCounts returns the current number of steering- and observer-tier
// clients (a point-in-time read of the tier snapshots).
func (s *Session) TierCounts() (steering, observers int) {
	return len(*s.steerView.Load()), len(*s.obsView.Load())
}

// ClientCount returns the number of attached clients.
func (s *Session) ClientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// Done returns a channel closed when the session closes; registries use it
// to evict ended sessions.
func (s *Session) Done() <-chan struct{} { return s.closeCh }

// View returns the current shared view state.
func (s *Session) View() ViewState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// Serve accepts connections from l until the session closes or the listener
// fails, handling each with ServeConn on its own goroutine.
func (s *Session) Serve(l net.Listener) error {
	go func() {
		<-s.closeCh
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closeCh:
				return nil
			default:
				return err
			}
		}
		go s.ServeConn(conn)
	}
}

// catchupBatchBytes bounds one catch-up replay batch: with the default 2s
// ControlTimeout per batch, a client sustaining ~128 KiB/s keeps up with
// any history size.
const catchupBatchBytes = 256 << 10

// writeFrames writes pre-encoded frames to the client in batches bounded
// by bytes as well as count, so each batch gets ControlTimeout for at most
// catchupBatchBytes — a client slower than that floor (not one with merely
// a bulky history) is the one that fails.
func (s *Session) writeFrames(cc *clientConn, frames [][]byte) error {
	return s.chunkFrames(frames, func(batch [][]byte) error {
		return cc.codec.writeBatch(batch, s.cfg.ControlTimeout)
	})
}

// writeFrameBufs writes a backlog of refcounted frames in bounded batches
// and releases every reference, success or not.
func (s *Session) writeFrameBufs(cc *clientConn, frames []*FrameBuf, locked bool) error {
	bufs := make([][]byte, len(frames))
	for i, fb := range frames {
		bufs[i] = fb.Bytes()
	}
	err := s.chunkFrames(bufs, func(batch [][]byte) error {
		if locked {
			return cc.codec.writeBatchLocked(batch, s.cfg.ControlTimeout)
		}
		return cc.codec.writeBatch(batch, s.cfg.ControlTimeout)
	})
	releaseFrames(frames)
	return err
}

// chunkFrames feeds frames to write in byte- and count-bounded batches.
func (s *Session) chunkFrames(frames [][]byte, write func([][]byte) error) error {
	for len(frames) > 0 {
		n, bytes := 0, 0
		for n < len(frames) && n < 64 && (n == 0 || bytes+len(frames[n]) <= catchupBatchBytes) {
			bytes += len(frames[n])
			n++
		}
		if err := write(frames[:n]); err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
}

// PendingConn is a client connection whose attach frame has been read but
// which is not yet bound to a session: the handoff unit between a routing
// layer (package hub) and the Session that will serve it.
type PendingConn struct {
	conn   net.Conn
	codec  *codec
	attach *attachMsg
	seq    uint64
}

// AcceptConn reads and version-checks the attach frame from conn. A stream
// outside the supported protocol range (minProtoVersion..ProtoVersion,
// v3..v5) — wrong magic (a gob v1 client, an HTTP probe) or an unsupported
// header version — is answered with a version-coded ack when possible and
// fails with ErrVersionMismatch. Callers that must bound the handshake set
// a read deadline on conn first (and clear it afterwards).
func AcceptConn(conn net.Conn) (*PendingConn, error) {
	c := newCodec(conn)
	c.harden()
	first, err := c.read()
	if err != nil {
		if errors.Is(err, ErrVersionMismatch) {
			// Best-effort typed rejection: a v1/foreign client may not parse
			// it, but a future-versioned client will.
			c.write(&envelope{Type: msgAck, Ack: &ackMsg{Code: codeVersion, Err: err.Error()}}, 2*time.Second)
		}
		conn.Close()
		return nil, err
	}
	if first.Type != msgAttach || first.Attach == nil {
		conn.Close()
		return nil, errors.New("core: protocol error: expected attach")
	}
	return &PendingConn{conn: conn, codec: c, attach: first.Attach, seq: first.Seq}, nil
}

// SessionName returns the session the client asked for ("" = default).
func (p *PendingConn) SessionName() string { return p.attach.Session }

// SetSessionName rewrites the target session: a routing layer resolving an
// empty name to its configured default.
func (p *PendingConn) SetSessionName(name string) { p.attach.Session = name }

// ClientName returns the client's requested name ("" = assign one).
func (p *PendingConn) ClientName() string { return p.attach.Name }

// Reject refuses the attach with a reason and closes the connection.
func (p *PendingConn) Reject(why string) error {
	p.codec.write(&envelope{Type: msgAck, Seq: p.seq, Ack: &ackMsg{Code: codeGeneric, Err: why}}, 2*time.Second)
	return p.codec.close()
}

// ServeConn runs the session protocol on one client connection until the
// client detaches or fails. It may be called concurrently.
func (s *Session) ServeConn(conn net.Conn) error {
	p, err := AcceptConn(conn)
	if err != nil {
		return err
	}
	return s.ServePending(p)
}

// ServePending runs the session protocol on a connection whose attach frame
// was already read by AcceptConn. It may be called concurrently.
func (s *Session) ServePending(p *PendingConn) error {
	c := p.codec
	defer c.close()

	cc, catchup, err := s.admitWithCatchup(p.attach, c)
	if err != nil {
		c.write(&envelope{Type: msgAck, Seq: p.seq, Ack: &ackMsg{Code: codeFor(err), Err: err.Error()}}, s.cfg.ControlTimeout)
		return err
	}
	defer s.drop(cc)

	// Unblock the read loop promptly when the client is declared dead by a
	// failed write (pooled or dedicated): closing the conn aborts c.read.
	serveDone := make(chan struct{})
	defer close(serveDone)
	go func() {
		select {
		case <-cc.gone:
			c.close()
		case <-serveDone:
		}
	}()

	// Welcome frame carries the full session state. Broadcasts between
	// admit and here only queue (no writer runs yet), and a frame queued in
	// that window duplicates state the welcome snapshot already carries
	// (view updates are Seq-guarded client-side), so delivering it after
	// the welcome is harmless.
	s.mu.Lock()
	role := RoleObserver
	if s.master == cc.name {
		role = RoleMaster
	}
	// The welcome is encoded at the peer's own version (cc.proto): the
	// negotiated-downgrade half of the v3/v4 handshake.
	welcome := &envelope{Type: msgWelcome, Seq: p.seq, Version: cc.proto, Welcome: &welcomeMsg{
		SessionName:    s.cfg.Name,
		AppName:        s.cfg.AppName,
		ClientName:     cc.name,
		Role:           role,
		Master:         s.master,
		Params:         s.params.snapshot(),
		View:           cloneView(s.view),
		LeaseMillis:    s.cfg.MasterLease.Milliseconds(),
		Policy:         s.cfg.FloorPolicy,
		FloorSeq:       s.floor.seq,
		Tier:           cc.desc.Load().tierOf(),
		ObserverMillis: s.cfg.ObserverInterval.Milliseconds(),
		Proto:          cc.proto,
	}}
	s.mu.Unlock()
	if err := cc.codec.write(welcome, s.cfg.ControlTimeout); err != nil {
		return err
	}

	// Catch-up phase: welcome → replay → go live. The journaled event and
	// sample history is written before any live frame so the late joiner
	// converges on what an always-attached client accumulated; state frames
	// were filtered out of catchup (the welcome snapshot above is strictly
	// newer). Live frames queued since admission wait behind the welcomed
	// gate until the replay is on the wire.
	if err := s.writeFrames(cc, catchup); err != nil {
		return err
	}
	if s.cfg.Journal == nil {
		cc.welcomed.Store(true)
	} else {
		// Go-live handoff: frames broadcast during the welcome and
		// catch-up writes sit in the ctrl queue and the overflow stash.
		// Large backlogs drain in unlocked rounds — a slow late joiner
		// must never make a broadcast wait on its socket — and the final
		// round holds the attach barrier only for memory work: steal the
		// remaining backlog, claim this client's codec write lock, open
		// the welcomed gate. The backlog then goes on the wire outside
		// every session lock; a live drain racing in queues behind the
		// held write lock, so the first bytes after the catch-up are the
		// backlog, in order, followed only by strictly newer traffic. A
		// client that cannot outpace the broadcast rate grows its stash
		// to the cap and is declared dead, which ends the loop.
		for {
			backlog := cc.drainBacklog()
			if len(backlog) <= 64 {
				s.attachMu.Lock()
				backlog = append(backlog, cc.drainBacklog()...)
				cc.codec.lockWrites()
				cc.welcomed.Store(true)
				s.attachMu.Unlock()
				err := s.writeFrameBufs(cc, backlog, true)
				cc.codec.unlockWrites()
				if err != nil {
					return err
				}
				break
			}
			if err := s.writeFrameBufs(cc, backlog, false); err != nil {
				return err
			}
		}
	}

	if s.cfg.Writer == nil {
		// Writer goroutine drains both rings in batches, control first;
		// broadcasts leave a wakeup token in cc.ready after queueing.
		go func() {
			var frames []*FrameBuf
			var bufs [][]byte
			for {
				frames = cc.ctrl.drainInto(frames[:0], 64)
				frames = cc.out.drainInto(frames, 64)
				if len(frames) == 0 {
					select {
					case <-cc.ready:
						continue
					case <-cc.gone:
						return
					case <-s.closeCh:
						return
					}
				}
				bufs = bufs[:0]
				for _, fb := range frames {
					bufs = append(bufs, fb.Bytes())
				}
				err := cc.codec.writeBatch(bufs, s.cfg.ControlTimeout)
				releaseFrames(frames)
				for i := range bufs {
					bufs[i] = nil // don't pin a released frame's backing array
				}
				if err != nil {
					cc.markGone()
					return
				}
			}
		}()
	} else {
		// Flush anything queued while the welcome was in flight; earlier
		// ClientReady signals were suppressed by the welcomed gate.
		s.notifyWriter(cc)
	}

	// Read loop: dispatch client requests.
	for {
		select {
		case <-cc.gone:
			return errors.New("core: client writer failed")
		case <-s.closeCh:
			return nil
		default:
		}
		e, err := c.read()
		if err != nil {
			return err
		}
		if done, err := s.dispatch(cc, e); done {
			return err
		}
	}
}

// admitWithCatchup fetches the journal catch-up replay and registers the
// client as one atomic step under the attach barrier. Fetch-then-admit
// under the exclusive lock is what makes delivery exactly-once: a broadcast
// completing before the barrier is in the replay and missed the
// unregistered client; one starting after it is queued live and postdates
// the fetch. Only events and samples are replayed — parameter, view and
// master state rides in the welcome frame, which is built after this
// returns and is therefore never older than the replay.
func (s *Session) admitWithCatchup(a *attachMsg, c *codec) (*clientConn, [][]byte, error) {
	if s.cfg.Journal == nil {
		cc, err := s.admit(a, c)
		return cc, nil, err
	}
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	var catchup [][]byte
	if a.Replay != ReplayNone {
		s.cfg.Journal.Replay(func(class JournalClass, frame []byte) bool {
			if class == JournalEvent || (class == JournalSample && a.Replay == ReplayAll) {
				// Replay frames are immutable sink memory (JournalSink), so
				// the catch-up written after this returns keeps the slices.
				catchup = append(catchup, frame)
			}
			return true
		})
	}
	cc, err := s.admit(a, c)
	if err != nil {
		return nil, nil, err
	}
	return cc, catchup, nil
}

// admit registers a new client, assigning the master role when requested and
// free, or when the client is the first to attach.
func (s *Session) admit(a *attachMsg, c *codec) (*clientConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cc, err := s.admitLocked(a, c)
	if err != nil {
		return nil, err
	}
	s.rebuildClientsLocked()
	return cc, nil
}

// admitLocked is admit's body without the snapshot rebuild; bulk admissions
// (benchmark fixtures) run it per client and rebuild once. The caller holds
// s.mu.
func (s *Session) admitLocked(a *attachMsg, c *codec) (*clientConn, error) {
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	for _, sub := range a.Subs {
		// Param selectors are keyed by the registry; a typo'd subscription
		// must fail the attach, not silently never match. Channel names are
		// not validated — channels are whatever the application emits.
		if sub.Kind == SubParam && !s.params.has(sub.Name) {
			return nil, fmt.Errorf("%w: subscription %q", ErrUnknownParam, sub.Name)
		}
	}
	name := a.Name
	if name == "" {
		name = fmt.Sprintf("client-%d", s.nextID)
	}
	if _, dup := s.clients[name]; dup {
		return nil, fmt.Errorf("core: client name %q already attached", name)
	}
	s.nextID++
	cc := &clientConn{
		name:       name,
		codec:      c,
		wantMaster: a.WantMaster,
		priority:   a.Priority,
		out:        newFrameRing(s.cfg.SampleQueue),
		ctrl:       newFrameRing(64),
		ready:      make(chan struct{}, 1),
		gone:       make(chan struct{}),
	}
	cc.proto = a.proto
	if cc.proto == 0 {
		cc.proto = ProtoVersion
	}
	// Bind the codec's egress layer to this session: the shared counter
	// block, and the configured coalesce threshold (0 keeps the codec's
	// ~1KB default; negative disables gathering). Safe without the write
	// lock — the welcome, the first write this codec sees post-admit,
	// happens after admit returns.
	c.egr = &s.egress
	if s.cfg.CoalesceBytes != 0 {
		c.coalesce = s.cfg.CoalesceBytes
	}
	// The delivery descriptor: a v3 attach carries no tier or selectors, so
	// its zero values land on TierSteering + subscribe-all — the negotiated
	// downgrade is exactly the old delivery semantics.
	cc.desc.Store(newClientDesc(a.Tier, a.Subs))
	if a.Tier == TierObserver {
		s.ensureRelayLocked()
	}
	cc.lastBeat.Store(s.now().UnixNano())
	if s.cfg.Writer != nil {
		cc.handle = &ClientHandle{s: s, cc: cc}
	}
	if s.master == "" && (a.WantMaster || len(s.clients) == 0) {
		// Implicit grant at attach: the floor is free and the client asked
		// (or is the first participant, the paper's one-user degenerate
		// case). No broadcast — the welcome snapshot carries it — but the
		// transition still takes a seq so later broadcasts order after it.
		s.master = name
		s.floor.stats.Grants++
		s.floor.seq++
	}
	s.clients[name] = cc
	s.order = append(s.order, name)
	return cc, nil
}

// rebuildClientsLocked swaps in a fresh immutable client snapshot for the
// broadcast path; the caller holds s.mu. On a journaled session an attach
// additionally runs under the exclusive attach barrier, so a broadcast
// holding the shared side observes the swap atomically with the journal
// catch-up fetch (the exactly-once delivery argument). A detach swaps under
// s.mu alone: a broadcast still holding the old snapshot pushes onto the
// dropped client's closed rings, which discard.
func (s *Session) rebuildClientsLocked() {
	view := make([]*clientConn, 0, len(s.order))
	steer := make([]*clientConn, 0, len(s.order))
	obs := []*clientConn{}
	for _, name := range s.order {
		cc := s.clients[name]
		view = append(view, cc)
		// Tier is fixed at attach (clientDesc.tier never changes on an
		// interest swap), so the partition is stable between rebuilds.
		if cc.desc.Load().tierOf() == TierObserver {
			obs = append(obs, cc)
		} else {
			steer = append(steer, cc)
		}
	}
	s.clientsView.Store(&view)
	s.steerView.Store(&steer)
	s.obsView.Store(&obs)
}

// drop removes a client. If it held the master role the floor passes to
// the next queued requester, then to the oldest remaining client that asked
// for mastership — never to a pure observer; a session left with only
// observers broadcasts "no master" instead of silently press-ganging one
// (failure-handling behaviour of section 3.3's authenticated collaboration,
// with ShAppliT-style explicit floor arbitration).
func (s *Session) drop(cc *clientConn) {
	s.mu.Lock()
	if _, ok := s.clients[cc.name]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.clients, cc.name)
	for i, n := range s.order {
		if n == cc.name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	mc := s.dropFloorLocked(cc)
	s.rebuildClientsLocked()
	s.mu.Unlock()

	cc.markGone()
	// Return queued buffer references to the pool: nobody will drain these
	// rings again. The rings close first, so a broadcast that loaded the
	// pre-drop snapshot discards instead of stranding references.
	cc.ctrl.closeRelease()
	cc.out.closeRelease()
	cc.closeStash()
	if s.cfg.Writer != nil && cc.handle != nil {
		s.cfg.Writer.ClientClosed(cc.handle)
	}
	mc.emit(s)
}

// dispatch handles one client request. done reports that the connection
// should terminate.
func (s *Session) dispatch(cc *clientConn, e *envelope) (done bool, err error) {
	// Every inbound frame renews the client's lease; msgHeartbeat exists so
	// an idle master has something to send.
	cc.lastBeat.Store(s.now().UnixNano())
	switch e.Type {
	case msgDetach:
		return true, nil

	case msgHeartbeat:
		return false, nil

	case msgSetParam:
		if len(e.Sets) == 0 {
			return false, nil
		}
		if !s.isMaster(cc) {
			s.rejectSteer(cc, e.Seq, ErrNotMaster)
			return false, nil
		}
		// Validate the whole batch before queueing any of it: a batch is
		// atomic, so a typo in one assignment cannot half-apply a steer.
		normalized := make([]ParamSet, len(e.Sets))
		for i, set := range e.Sets {
			v, verr := s.params.validate(set.Name, set.Value)
			if verr != nil {
				s.rejectSteer(cc, e.Seq, verr)
				return false, nil
			}
			normalized[i] = ParamSet{Name: set.Name, Value: v}
		}
		s.enqueueOp(pendingOp{sets: normalized})
		s.ack(cc, e.Seq)

	case msgCommand:
		if !s.isMaster(cc) {
			s.rejectSteer(cc, e.Seq, ErrNotMaster)
			return false, nil
		}
		s.enqueueOp(pendingOp{cmd: e.Command})
		if e.Command == cmdResume {
			s.signalResume()
		}
		s.ack(cc, e.Seq)

	case msgSetView:
		if e.View == nil {
			return false, nil
		}
		if !s.isMaster(cc) {
			s.rejectSteer(cc, e.Seq, ErrNotMaster)
			return false, nil
		}
		s.mu.Lock()
		s.viewSeq++
		v := *e.View
		v.Seq = s.viewSeq
		s.view = v
		update := cloneView(s.view)
		s.mu.Unlock()
		s.ack(cc, e.Seq)
		s.broadcastControl(&envelope{Type: msgViewUpdate, View: update})

	case msgRequestMaster:
		s.handleRequestMaster(cc, e)

	case msgReleaseMaster:
		s.handleReleaseMaster(cc, e)

	case msgHandoffMaster:
		s.handleHandoffMaster(cc, e)

	case msgSubscribe:
		d := cc.desc.Load()
		if e.SubAll {
			cc.desc.Store(descSubscribeAll(d.tierOf()))
			s.ack(cc, e.Seq)
			return false, nil
		}
		for _, sub := range e.Subs {
			// Same registry check as the attach selectors; channel names
			// pass unchecked (see admitLocked).
			if sub.Kind == SubParam && !s.params.has(sub.Name) {
				s.nack(cc, e.Seq, fmt.Errorf("%w: subscription %q", ErrUnknownParam, sub.Name))
				return false, nil
			}
		}
		cc.desc.Store(d.withSubs(e.Subs))
		s.ack(cc, e.Seq)

	case msgUnsubscribe:
		cc.desc.Store(cc.desc.Load().withoutSubs(e.Subs))
		s.ack(cc, e.Seq)
	}
	return false, nil
}

func (s *Session) isMaster(cc *clientConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.master == cc.name
}

func (s *Session) enqueueOp(op pendingOp) {
	select {
	case s.pending <- op:
	default:
		// The simulation has not polled for a long time and the queue is
		// full; dropping the oldest keeps the newest intent, matching
		// "latest steering wins" semantics.
		select {
		case <-s.pending:
		default:
		}
		s.pending <- op
	}
}

// Acks are encoded at the client's attach version so a downgraded v3 peer
// reads v3-headed replies.
func (s *Session) ack(cc *clientConn, seq uint64) {
	cc.codec.write(&envelope{Type: msgAck, Seq: seq, Version: cc.proto, Ack: &ackMsg{OK: true}}, s.cfg.ControlTimeout)
}

// nack refuses a non-steering request with a typed code.
func (s *Session) nack(cc *clientConn, seq uint64, why error) {
	cc.codec.write(&envelope{Type: msgAck, Seq: seq, Version: cc.proto, Ack: &ackMsg{Code: codeFor(why), Err: why.Error()}}, s.cfg.ControlTimeout)
}

func (s *Session) rejectSteer(cc *clientConn, seq uint64, why error) {
	s.statSteersRejected.Add(1)
	cc.codec.write(&envelope{Type: msgAck, Seq: seq, Version: cc.proto, Ack: &ackMsg{Code: codeFor(why), Err: why.Error()}}, s.cfg.ControlTimeout)
}

// broadcastControl encodes a control frame once into a pooled buffer and
// queues a reference to every client; a client whose queue is full has its
// oldest entry overwritten (control frames are small and idempotent:
// last-writer-wins state updates).
func (s *Session) broadcastControl(e *envelope) {
	if s.closing.Load() {
		// A dying session delivers nothing: the clients' conns are (being)
		// torn down and the journal is sealing, and dropping on both sides
		// keeps what clients observed and what the log will replay
		// consistent.
		return
	}
	fb := GetFrame(256)
	b, err := encodeEnvelope(fb.b[:0], e)
	if err != nil {
		fb.Release()
		return
	}
	fb.b = b
	if e.Type == msgParamUpdate {
		// Parameter updates are interest-keyed by the updated names so
		// selectively-subscribed clients skip updates they never asked for.
		for i := range e.Params {
			fb.appendKey(e.Params[i].Name)
		}
	}
	s.fanout(journalClassOf(e.Type), fb, true)
}

// fanout delivers one encoded broadcast frame: journal tap under the shared
// side of the attach barrier, then one queue push per interested client in
// the current snapshot — steering tier inline, observer tier via the relay
// workers (publish). A frame with interest keys skips clients whose
// descriptor matches none of them before touching their ring. It consumes
// the caller's buffer reference and reports whether the frame was delivered
// (false only when the session is closing — the re-check under the shared
// barrier is authoritative, Close stores the flag under the exclusive side,
// so delivery and the journal stay consistent).
//
// This is the hot path, and it is steady-state allocation- and lock-free:
// the client list is an RCU snapshot load, the buffer came from the frame
// pool, every queue is a ring whose eviction is an O(1) slot overwrite, and
// the counters are atomics. Only a journaled session takes the shared
// (read) side of the attach barrier, which the journal's exactly-once
// catch-up semantics require; the journal tap itself is an in-memory copy
// of the same encoded bytes — durability never re-encodes, and the sink
// keeps no reference, so the buffer returns to the pool on its last
// fan-out release (see JournalSink).
//
//steer:hotpath
//steer:consumes
func (s *Session) fanout(class JournalClass, fb *FrameBuf, ctrl bool) bool {
	journaled := s.cfg.Journal != nil
	if journaled {
		s.attachMu.RLock() //steer:allow hotpathalloc shared side of the attach barrier, journaled sessions only; writers are rare attach/detach events
		if s.closing.Load() {
			s.attachMu.RUnlock()
			fb.Release()
			return false
		}
		// Blob frames never reach the journal (see JournalBlob): the tap is
		// skipped, but the frame still holds the shared barrier so Close's
		// closing-flag handshake stays exact.
		if !s.recovering.Load() && class != JournalBlob {
			s.cfg.Journal.Record(class, fb)
		}
	}
	if ctrl {
		// Control frames are queued to every tier inline — they are small,
		// rare and lossless, and their order is the order of these pushes. A
		// keyed frame (param update) still honours interest; keyless control
		// goes to everyone. Writers are woken inline too, except a param
		// update toward the observer tier: the relay workers own that
		// wakeup, so the update leaves in one batch with the pushed sample
		// that follows the steer (within ObserverInterval if none does) and
		// the simulation goroutine pays no per-observer wakeup per steer.
		clients := *s.clientsView.Load()
		keyed := len(fb.keys) > 0
		rl := s.relay.Load()
		var filtered uint64
		deferred := false
		for _, cc := range clients {
			d := cc.desc.Load()
			if keyed && !d.wantsParams(fb.keys) {
				filtered++
				continue
			}
			s.routeCtrl(cc, fb)
			if keyed && rl != nil && d.tierOf() == TierObserver {
				deferred = true
				continue
			}
			s.notifyWriter(cc)
		}
		if deferred {
			rl.wake()
		}
		if filtered > 0 {
			s.statFramesFiltered.Add(filtered)
		}
	} else {
		// Steering tier: every frame, inline. The interest check is one
		// atomic load plus map probes against an immutable descriptor.
		steer := *s.steerView.Load()
		var delivered, dropped, filtered uint64
		for _, cc := range steer {
			// Proto gate: a frame class the client's decoder predates (a blob
			// toward a v3/v4 peer) is skipped, not delivered — an unknown
			// message type would kill the peer's read loop.
			if fb.minProto > cc.proto {
				filtered++
				continue
			}
			if len(fb.keys) > 0 && !cc.desc.Load().wantsSample(fb.keys) {
				filtered++
				continue
			}
			if cc.out.push(fb) {
				// The overwrite retracted an earlier queued sample: that one
				// is the drop, the fresh frame replaces its delivery.
				cc.dropped.Add(1)
				dropped++
			} else {
				delivered++
			}
			s.notifyWriter(cc)
		}
		// Observer tier: the session's whole share is one ring push per
		// relay worker; the workers do the per-observer work off this
		// goroutine.
		if len(*s.obsView.Load()) > 0 {
			if rl := s.relay.Load(); rl != nil {
				rl.publish(fb)
			}
		}
		s.statSamplesDelivered.Add(delivered)
		s.statSamplesDropped.Add(dropped)
		if filtered > 0 {
			s.statFramesFiltered.Add(filtered)
		}
	}
	if journaled {
		s.attachMu.RUnlock()
	}
	fb.Release()
	return true
}

// routeCtrl queues one control frame toward a client. A full ring evicts
// its oldest entry — except pre-welcome on a journaled session, where no
// writer is draining yet and an eviction would lose a frame that is in
// neither the client's catch-up replay nor its queue: those overflow to
// the stash (and once overflow has started stashing, later frames stash
// too, so the backlog drain — ctrl ring first, then stash — preserves
// arrival order). A client that exhausts the stash bound is beyond saving.
func (s *Session) routeCtrl(cc *clientConn, fb *FrameBuf) {
	if s.cfg.Journal != nil && !cc.welcomed.Load() {
		if cc.stashPending() || !cc.ctrl.tryPush(fb) {
			if !cc.stashCtrl(fb) {
				cc.markGone()
			}
		}
		return
	}
	cc.ctrl.push(fb)
}

// notifyWriter wakes whichever writer drains cc's queues: the external
// scheduler's edge trigger, or the dedicated writer's wakeup token.
// External notifies are suppressed until the welcome frame is on the wire;
// ServePending notifies once after it.
func (s *Session) notifyWriter(cc *clientConn) {
	if s.cfg.Writer != nil {
		if cc.handle != nil && cc.welcomed.Load() {
			s.cfg.Writer.ClientReady(cc.handle)
		}
		return
	}
	select {
	case cc.ready <- struct{}{}:
	default:
	}
}

// stampPush marks fb as steer-caused when it is the first frame of its
// class (pushed is that class's epoch) since a steer applied.
//
//steer:hotpath
func (s *Session) stampPush(fb *FrameBuf, pushed *atomic.Uint64) {
	if ep := s.steerEpoch.Load(); ep != pushed.Load() {
		pushed.Store(ep)
		fb.push = true
	}
}

// broadcastSample fans a sample out to all clients, serializing it exactly
// once into a pooled buffer: every client ring (and every batched writer
// behind DrainBatch) holds a reference to the same bytes, so fan-out cost
// is refcounted slot writes, not N encodings or N buffers. A slow client's
// full ring overwrites its oldest entry so the freshest data always
// survives a burst: "failures or slow operation of the visualization must
// not disturb the simulation progress", and a client that falls behind sees
// the most recent samples rather than a stale prefix (dropping newest would
// strand a client on pre-migration data across a compute handoff).
//
//steer:hotpath
func (s *Session) broadcastSample(sample *Sample) {
	if s.closing.Load() {
		return // see broadcastControl: a dying session delivers nothing
	}
	// Pre-size for the payload so a cold pool buffer costs one allocation
	// instead of append-growth over a multi-KB sample; a warm one is free.
	est := sample.ByteSize() + 64*len(sample.Channels) + 256
	fb := GetFrame(est)
	e := envelope{Type: msgSample, Sample: sample}
	b, err := encodeEnvelope(fb.b[:0], &e)
	if err != nil {
		fb.Release()
		return
	}
	fb.b = b
	// Interest keys ride on the buffer itself so the relay workers can
	// match asynchronously without re-decoding; map iteration appends into
	// the pooled buffer's reused key slice — no allocation once warm.
	for name := range sample.Channels {
		fb.appendKey(name)
	}
	s.stampPush(fb, &s.pushedSample)
	if s.fanout(JournalSample, fb, false) {
		s.statSamplesEmitted.Add(1)
		s.lastSample.Store(sample)
	}
}

// broadcastBlob fans one bulk binary frame out to the v5+ clients whose
// interest set wants its stream, through the same tiered path as samples:
// steering tier inline, observer tier via the relay workers. The payload is
// copied exactly once — into the pooled, size-classed broadcast buffer —
// and from there every delivery is a refcounted ring push; on TCP conns the
// writev egress hands the buffer to the kernel zero-copy (a blob payload is
// always far above the coalesce threshold). Blobs skip the journal tap (see
// JournalBlob) and are never queued toward pre-v5 peers (fb.minProto).
//
//steer:hotpath
func (s *Session) broadcastBlob(b *Blob) {
	if s.closing.Load() {
		return // see broadcastControl: a dying session delivers nothing
	}
	fb := GetFrame(b.ByteSize())
	e := envelope{Type: msgBlob, Blob: b}
	buf, err := encodeEnvelope(fb.b[:0], &e)
	if err != nil {
		fb.Release()
		return
	}
	fb.b = buf
	fb.minProto = blobProtoVersion
	if b.Stream != "" {
		fb.appendKey(b.Stream)
	}
	s.stampPush(fb, &s.pushedBlob)
	if s.fanout(JournalBlob, fb, false) {
		s.statBlobsEmitted.Add(1)
		s.statBlobBytes.Add(uint64(len(b.Data)))
	}
}

// broadcastEvent sends a progress/status event string (the section 4.4
// "visual reminder that there are still ongoing activities").
func (s *Session) broadcastEvent(ev string) {
	s.broadcastControl(&envelope{Type: msgEvent, Event: ev})
}

// ---- trusted in-process steering surface ----
//
// Grid services hosted next to the session (package ogsi) steer through
// these methods instead of a network client; they carry the same
// apply-at-poll semantics. Authorisation is the hosting service's concern,
// mirroring how the UNICORE proxy made collaborators authenticate to the
// grid layer rather than to VISIT.

// QueueSetValue validates and queues a typed steering request for the next
// poll.
func (s *Session) QueueSetValue(name string, value Value) error {
	v, err := s.params.validate(name, value)
	if err != nil {
		return err
	}
	s.enqueueOp(pendingOp{sets: []ParamSet{{Name: name, Value: v}}})
	return nil
}

// QueueSetParam validates and queues a float steering request for the next
// poll; the float convenience form of QueueSetValue.
func (s *Session) QueueSetParam(name string, value float64) error {
	return s.QueueSetValue(name, FloatValue(value))
}

// QueuePause queues a pause command.
func (s *Session) QueuePause() { s.enqueueOp(pendingOp{cmd: cmdPause}) }

// QueueResume queues a resume command and releases a blocked PollBlocking.
func (s *Session) QueueResume() {
	s.enqueueOp(pendingOp{cmd: cmdResume})
	s.signalResume()
}

// QueueStop queues a stop command.
func (s *Session) QueueStop() { s.enqueueOp(pendingOp{cmd: cmdStop}) }

// QueueCheckpoint queues a checkpoint request.
func (s *Session) QueueCheckpoint() { s.enqueueOp(pendingOp{cmd: cmdCheckpoint}) }

// SetViewServer updates the shared view state from a trusted in-process
// caller and broadcasts it to all clients.
func (s *Session) SetViewServer(v ViewState) ViewState {
	s.mu.Lock()
	s.viewSeq++
	v.Seq = s.viewSeq
	s.view = v
	update := cloneView(s.view)
	s.mu.Unlock()
	s.broadcastControl(&envelope{Type: msgViewUpdate, View: update})
	return *update
}

// LastSample returns the most recently emitted sample (nil before the first
// emission).
func (s *Session) LastSample() *Sample {
	return s.lastSample.Load()
}

// Paused reports whether the session is currently paused.
func (s *Session) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

func (s *Session) signalResume() {
	s.mu.Lock()
	if s.paused {
		s.paused = false
		close(s.resumeCh)
		s.resumeCh = make(chan struct{})
	}
	s.mu.Unlock()
}

// Close terminates the session and all client connections.
func (s *Session) Close() {
	// Under the exclusive barrier: in-flight broadcasts (shared holders)
	// finish wholly-before — delivered and journaled — and later ones see
	// the flag and drop wholly; the journal never records a frame the
	// clients could not have observed, and vice versa.
	s.attachMu.Lock()
	s.closing.Store(true)
	s.attachMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	clients := make([]*clientConn, 0, len(s.clients))
	for _, cc := range s.clients {
		clients = append(clients, cc)
	}
	s.mu.Unlock()
	close(s.closeCh)
	for _, cc := range clients {
		cc.codec.close()
	}
}

func cloneView(v ViewState) *ViewState {
	c := v
	c.VizParams = make(map[string]float64, len(v.VizParams))
	for k, val := range v.VizParams {
		c.VizParams[k] = val
	}
	return &c
}
