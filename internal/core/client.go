package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a remote steering/viewing participant. It connects to a Session
// over any net.Conn (real TCP, or a netsim shaped link in the experiments).
type Client struct {
	codec *codec
	name  string

	mu      sync.Mutex
	master  string
	session string
	app     string
	params  map[string]Param
	view    ViewState
	events  []string
	// lease and policy are the session's floor-control advertisement from
	// the welcome; a non-zero lease starts the heartbeat loop.
	lease  time.Duration
	policy FloorPolicy
	// tier and observerEvery are the welcome's delivery advertisement: the
	// granted tier and the observer coalescing interval (<= 0 = immediate).
	tier          Tier
	observerEvery time.Duration
	// floorReason explains the most recent master change.
	floorReason FloorReason
	// floorSeq is the transition number the master field reflects; a
	// master-changed broadcast with a lower seq is stale (two transitions
	// emitted by different session goroutines may reach the queue out of
	// order) and is dropped instead of regressing the view.
	floorSeq uint64
	// masterCh is closed and replaced on every master change; blocked
	// RequestMaster callers wait on it. There is deliberately no role
	// field: Role() derives from master == name, the single source of
	// truth, so a welcome racing a master-changed broadcast can never leave
	// the two disagreeing.
	masterCh chan struct{}

	seq     uint64
	pending map[uint64]chan *ackMsg

	samples chan *Sample
	blobs   chan *Blob
	updates chan ViewState
	closed  chan struct{}
	once    sync.Once
	readErr error
}

// ParamSet names one steering assignment; a batch of them travels in a
// single envelope and is validated and applied atomically.
type ParamSet struct {
	Name  string
	Value Value
}

// AttachOptions configure Attach.
type AttachOptions struct {
	// Name identifies the client; "" lets the session assign one.
	Name string
	// Session names the target session when dialing a hub hosting several;
	// "" selects the endpoint's default session.
	Session string
	// WantMaster requests the master role if free.
	WantMaster bool
	// Priority orders this client's floor requests under the session's
	// priority policy; higher wins. Ignored under other policies.
	Priority int64
	// SampleBuffer bounds the local sample queue (default 16). When full,
	// the oldest sample is discarded: a slow consumer sees the freshest data.
	SampleBuffer int
	// BlobBuffer bounds the local blob queue (default 4 — blob frames are
	// big, so the client holds few of them). Same freshest-wins eviction as
	// SampleBuffer.
	BlobBuffer int
	// Timeout bounds the attach handshake (default 5s).
	Timeout time.Duration
	// HeartbeatInterval overrides the lease-renewal heartbeat cadence.
	// 0 derives it from the session's advertised master lease (a third of
	// it); < 0 disables heartbeats entirely — a client that also sends
	// nothing else will lose a held master role when the lease lapses
	// (that is what the lease is for; disable only to simulate a wedged
	// client).
	HeartbeatInterval time.Duration
	// Tier selects the delivery tier. The zero value, TierSteering,
	// delivers every frame inline; TierObserver delivers coalesced
	// freshest-wins batches on the session's observer interval.
	Tier Tier
	// Subscriptions is the initial interest set; empty means
	// subscribe-all. Param selectors are validated against the session's
	// registry at attach — an unknown name rejects the attach with
	// ErrUnknownParam. Subscribe/Unsubscribe adjust the set later.
	Subscriptions []Subscription
	// ReplayPolicy selects how much journal history to replay at attach:
	// everything (the zero value), events only, or none.
	ReplayPolicy ReplayPolicy
}

// Attach performs the handshake without a context; a thin wrapper kept so
// pre-context callers still compile. New code should call AttachContext —
// every option, including cancellation, lives there.
func Attach(conn net.Conn, opts AttachOptions) (*Client, error) {
	return AttachContext(context.Background(), conn, opts)
}

// Dial connects to addr over TCP and attaches under ctx: the functional
// entry point for the common case, one options struct end to end. The
// context bounds both the dial and the handshake.
func Dial(ctx context.Context, addr string, opts AttachOptions) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return AttachContext(ctx, conn, opts)
}

// AttachContext performs the handshake under ctx: cancellation or deadline
// expiry during the handshake fails the attach and closes conn. The
// handshake carries ProtoVersion; an endpoint speaking any other version
// (or not this protocol at all) fails with ErrVersionMismatch.
func AttachContext(ctx context.Context, conn net.Conn, opts AttachOptions) (*Client, error) {
	if opts.SampleBuffer <= 0 {
		opts.SampleBuffer = 16
	}
	if opts.BlobBuffer <= 0 {
		opts.BlobBuffer = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if err := ctx.Err(); err != nil {
		conn.Close()
		return nil, err
	}
	deadline := time.Now().Add(opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	// Arm the handshake deadline before spawning the cancellation watcher:
	// the watcher's poison deadline must never be overwritten by this one.
	conn.SetDeadline(deadline)

	// A cancelled context forces the blocked handshake I/O to fail by
	// poisoning the deadline. The mutex-guarded done flag makes the race
	// with handshake completion safe: once finishHandshake has run, a late
	// cancellation can never poison a connection that now belongs to the
	// read loop, and finishHandshake's deadline clear undoes any poison
	// that landed just before it.
	var (
		hsMu   sync.Mutex
		hsDone bool
		hsOnce sync.Once
	)
	handshakeDone := make(chan struct{})
	finishHandshake := func() {
		hsOnce.Do(func() {
			hsMu.Lock()
			hsDone = true
			hsMu.Unlock()
			close(handshakeDone)
		})
	}
	defer finishHandshake()
	go func() {
		select {
		case <-ctx.Done():
			hsMu.Lock()
			if !hsDone {
				conn.SetDeadline(time.Unix(1, 0))
			}
			hsMu.Unlock()
		case <-handshakeDone:
		}
	}()

	ctxErr := func(err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The conn deadline mirrors the ctx deadline and may fire a moment
		// before the context's own timer; report the context's verdict.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return context.DeadlineExceeded
		}
		return err
	}

	c := &Client{
		codec:    newCodec(conn),
		params:   make(map[string]Param),
		pending:  make(map[uint64]chan *ackMsg),
		samples:  make(chan *Sample, opts.SampleBuffer),
		blobs:    make(chan *Blob, opts.BlobBuffer),
		updates:  make(chan ViewState, 16),
		masterCh: make(chan struct{}),
		closed:   make(chan struct{}),
	}
	if err := c.codec.write(&envelope{
		Type: msgAttach,
		Attach: &attachMsg{
			Name: opts.Name, WantMaster: opts.WantMaster,
			Session: opts.Session, Priority: opts.Priority,
			Tier: opts.Tier, Replay: opts.ReplayPolicy, Subs: opts.Subscriptions,
		},
	}, 0); err != nil {
		conn.Close()
		return nil, ctxErr(err)
	}

	first, err := c.codec.read()
	// Stand the watcher down before clearing the deadline, so the clear
	// also erases any poison a racing cancellation just planted.
	finishHandshake()
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, ctxErr(err)
	}
	switch first.Type {
	case msgWelcome:
		w := first.Welcome
		c.name = w.ClientName
		c.master = w.Master
		c.session = w.SessionName
		c.app = w.AppName
		c.lease = time.Duration(w.LeaseMillis) * time.Millisecond
		c.policy = w.Policy
		c.floorSeq = w.FloorSeq
		c.tier = w.Tier
		c.observerEvery = time.Duration(w.ObserverMillis) * time.Millisecond
		for _, p := range w.Params {
			c.params[p.Name] = p
		}
		if w.View != nil {
			c.view = *w.View
		}
	case msgAck:
		conn.Close()
		return nil, fmt.Errorf("core: attach rejected: %w", ackError(first.Ack))
	default:
		conn.Close()
		return nil, errors.New("core: protocol error: expected welcome")
	}

	go c.readLoop()
	if c.lease > 0 && opts.HeartbeatInterval >= 0 {
		interval := opts.HeartbeatInterval
		if interval == 0 {
			interval = c.lease / 3
		}
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		go c.heartbeatLoop(interval)
	}
	return c, nil
}

// heartbeatLoop renews the client's lease while the connection lives. Any
// request also renews it; the heartbeat covers an otherwise idle master.
// Write failures do not stop the loop — a dead connection ends it via
// c.closed (the read loop closes the client), while a transient stall must
// not silently end lease renewal for a connection that recovers.
func (c *Client) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.codec.write(&envelope{Type: msgHeartbeat}, time.Second)
		case <-c.closed:
			return
		}
	}
}

// ackError turns a rejection ack into its typed error.
func ackError(ack *ackMsg) error {
	if ack == nil {
		return ErrRejected
	}
	typed := errFor(ack.Code)
	if ack.Err == "" {
		return typed
	}
	return fmt.Errorf("%w: %s", typed, ack.Err)
}

// Name returns the client's session-assigned name.
func (c *Client) Name() string { return c.name }

// SessionName returns the session's name from the welcome.
func (c *Client) SessionName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// AppName returns the steered application's name.
func (c *Client) AppName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.app
}

// Role returns the client's current role.
func (c *Client) Role() Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.master == c.name {
		return RoleMaster
	}
	return RoleObserver
}

// Master returns the current master's name.
func (c *Client) Master() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.master
}

// Tier returns the delivery tier the session granted at attach.
func (c *Client) Tier() Tier {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tier
}

// ObserverInterval returns the session's advertised observer interval: the
// longest unprompted spacing between observer flushes, in whole
// milliseconds (a positive interval is rounded up). Steer-caused frames and
// parameter updates are not held for it; <= 0 means every observer frame
// flushes at once.
func (c *Client) ObserverInterval() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observerEvery
}

// Subscribe adds selectors to this client's interest set. The first
// selective subscription for a kind (channel or parameter) narrows that
// kind from subscribe-all to exactly the named set; later calls accumulate.
// Unknown parameter names are rejected with ErrUnknownParam; channel names
// are not validated (channels are whatever the application emits).
func (c *Client) Subscribe(ctx context.Context, subs ...Subscription) error {
	return c.requestCtx(ctx, &envelope{Type: msgSubscribe, Subs: subs})
}

// Unsubscribe removes selectors from the interest set. Removing from a
// kind still at subscribe-all is a no-op; with no selectors at all it
// clears both kinds to interested-in-nothing.
func (c *Client) Unsubscribe(ctx context.Context, subs ...Subscription) error {
	return c.requestCtx(ctx, &envelope{Type: msgUnsubscribe, Subs: subs})
}

// SubscribeAll resets the interest set to subscribe-all for both kinds,
// undoing every narrowing Subscribe.
func (c *Client) SubscribeAll(ctx context.Context) error {
	return c.requestCtx(ctx, &envelope{Type: msgSubscribe, SubAll: true})
}

// Params returns the last known parameter table.
func (c *Client) Params() []Param {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Param, 0, len(c.params))
	for _, p := range c.params {
		out = append(out, p)
	}
	return out
}

// Param returns one parameter by name.
func (c *Client) Param(name string) (Param, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.params[name]
	return p, ok
}

// View returns the last synchronised view state.
func (c *Client) View() ViewState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// Events returns the accumulated event strings.
func (c *Client) Events() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...)
}

// Samples returns the channel of incoming samples. Slow consumers lose the
// oldest entries, never block the session.
func (c *Client) Samples() <-chan *Sample { return c.samples }

// Blobs returns the channel of incoming bulk frames: pixel
// tiles, rendered frames, geometry, keyed by stream name. Same
// freshest-wins semantics as Samples — a slow consumer loses the oldest
// queued blob, never blocks the session. The Data slice of a received blob
// belongs to the consumer outright.
func (c *Client) Blobs() <-chan *Blob { return c.blobs }

// ViewUpdates returns the channel of view synchronisation updates.
func (c *Client) ViewUpdates() <-chan ViewState { return c.updates }

// readLoop dispatches inbound frames until the connection dies.
func (c *Client) readLoop() {
	for {
		e, err := c.codec.read()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			c.Close()
			return
		}
		switch e.Type {
		case msgSample:
			if e.Sample == nil {
				continue
			}
			for {
				select {
				case c.samples <- e.Sample:
				default:
					select {
					case <-c.samples: // evict oldest
						continue
					default:
					}
				}
				break
			}
		case msgBlob:
			if e.Blob == nil {
				continue
			}
			for {
				select {
				case c.blobs <- e.Blob:
				default:
					select {
					case <-c.blobs: // evict oldest
						continue
					default:
					}
				}
				break
			}
		case msgParamUpdate:
			c.mu.Lock()
			for _, p := range e.Params {
				c.params[p.Name] = p
			}
			c.mu.Unlock()
		case msgViewUpdate:
			if e.View == nil {
				continue
			}
			c.mu.Lock()
			if e.View.Seq > c.view.Seq {
				c.view = *e.View
			}
			c.mu.Unlock()
			select {
			case c.updates <- *e.View:
			default:
				select {
				case <-c.updates:
				default:
				}
				select {
				case c.updates <- *e.View:
				default:
				}
			}
		case msgMasterChanged:
			c.mu.Lock()
			if e.Seq == 0 || e.Seq > c.floorSeq {
				c.master = e.Target
				c.floorReason = e.Reason
				if e.Seq > 0 {
					c.floorSeq = e.Seq
				}
				close(c.masterCh)
				c.masterCh = make(chan struct{})
			}
			c.mu.Unlock()
		case msgEvent:
			c.mu.Lock()
			c.events = append(c.events, e.Event)
			c.mu.Unlock()
		case msgAck:
			c.mu.Lock()
			ch, ok := c.pending[e.Seq]
			delete(c.pending, e.Seq)
			c.mu.Unlock()
			if ok {
				ch <- e.Ack
			}
		}
	}
}

// request is requestCtx bounded by timeout; a timeout <= 0 means 5 s.
func (c *Client) request(e *envelope, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.TODO(), timeout)
	defer cancel()
	return c.requestCtx(ctx, e)
}

// requestAckCtx is the one request/ack exchange: the write deadline is the
// context's remaining budget, capped at 5 s, and the ack wait ends on
// cancellation. It returns the positive ack for callers that branch on its
// code (a queued floor request acks OK with codeFloorQueued).
func (c *Client) requestAckCtx(ctx context.Context, e *envelope) (*ackMsg, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	writeTimeout := 5 * time.Second
	if d, ok := ctx.Deadline(); ok {
		if remain := time.Until(d); remain < writeTimeout {
			writeTimeout = remain
		}
	}
	seq := atomic.AddUint64(&c.seq, 1)
	e.Seq = seq
	ch := make(chan *ackMsg, 1)
	c.mu.Lock()
	c.pending[seq] = ch
	c.mu.Unlock()

	if err := c.codec.write(e, writeTimeout); err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case ack := <-ch:
		if ack == nil || !ack.OK {
			return nil, ackError(ack)
		}
		return ack, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	case <-c.closed:
		return nil, errors.New("core: connection closed")
	}
}

// requestCtx is the error-only form of requestAckCtx, for callers that do
// not branch on the positive ack.
func (c *Client) requestCtx(ctx context.Context, e *envelope) error {
	_, err := c.requestAckCtx(ctx, e)
	return err
}

// SetValueContext submits a typed steering assignment; only the master
// succeeds. The value is validated against the parameter's registered type
// and bounds and applied at the simulation's next poll. Rejections carry
// typed errors: ErrNotMaster, ErrUnknownParam, ErrBadValue.
func (c *Client) SetValueContext(ctx context.Context, name string, value Value) error {
	return c.SetParamsContext(ctx, []ParamSet{{Name: name, Value: value}})
}

// SetParamsContext submits a batch of steering assignments in one envelope
// with one round trip. The batch is atomic: the session validates every
// assignment before queueing any, so a rejected batch changes nothing.
func (c *Client) SetParamsContext(ctx context.Context, sets []ParamSet) error {
	if len(sets) == 0 {
		return nil
	}
	return c.requestCtx(ctx, &envelope{Type: msgSetParam, Sets: sets})
}

// SetParamContext submits a float steering assignment; the float
// convenience form of SetValueContext. Other value kinds go through
// SetValueContext with the matching constructor (IntValue, BoolValue,
// StringValue).
func (c *Client) SetParamContext(ctx context.Context, name string, value float64) error {
	return c.SetValueContext(ctx, name, FloatValue(value))
}

// PauseContext asks the simulation to pause at its next poll (master only).
func (c *Client) PauseContext(ctx context.Context) error {
	return c.requestCtx(ctx, &envelope{Type: msgCommand, Command: cmdPause})
}

// ResumeContext releases a paused simulation (master only).
func (c *Client) ResumeContext(ctx context.Context) error {
	return c.requestCtx(ctx, &envelope{Type: msgCommand, Command: cmdResume})
}

// StopContext asks the simulation to terminate cleanly (master only).
func (c *Client) StopContext(ctx context.Context) error {
	return c.requestCtx(ctx, &envelope{Type: msgCommand, Command: cmdStop})
}

// CheckpointContext asks the simulation to write a checkpoint (master
// only).
func (c *Client) CheckpointContext(ctx context.Context) error {
	return c.requestCtx(ctx, &envelope{Type: msgCommand, Command: cmdCheckpoint})
}

// SetViewContext publishes a new shared view state (master only).
func (c *Client) SetViewContext(ctx context.Context, v ViewState) error {
	return c.requestCtx(ctx, &envelope{Type: msgSetView, View: &v})
}

// RequestMaster asks for the master role and blocks until it is granted or
// ctx ends. A free floor grants immediately; a held one queues the request
// under the session's floor policy and the call waits for the grant
// broadcast. Cancelling ctx withdraws the queued request before returning
// ctx's error, so an abandoned wait can never be granted a floor nobody is
// holding.
func (c *Client) RequestMaster(ctx context.Context) error {
	ack, err := c.requestAckCtx(ctx, &envelope{Type: msgRequestMaster})
	if err != nil {
		return err
	}
	if ack.Code != codeFloorQueued {
		c.noteGranted(FloorGranted) // the broadcast may lag (or have been evicted)
		return nil
	}
	// Waiting for the grant broadcast, with a periodic re-request as the
	// safety net: the grant rides the lossy control ring, and re-requesting
	// is idempotent — if this client already holds the floor the session
	// answers a plain OK, which is the recovery path for a lost grant.
	const repoll = time.Second
	timer := time.NewTimer(repoll)
	defer timer.Stop()
	for {
		c.mu.Lock()
		granted, ch := c.master == c.name, c.masterCh
		c.mu.Unlock()
		if granted {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			ack, err := c.requestAckCtx(ctx, &envelope{Type: msgRequestMaster})
			if err != nil {
				return err
			}
			if ack.Code != codeFloorQueued {
				c.noteGranted(FloorGranted)
				return nil
			}
			timer.Reset(repoll)
		case <-ctx.Done():
			// Best-effort withdrawal; the session also drops the queued
			// request when the connection dies.
			c.request(&envelope{Type: msgReleaseMaster}, time.Second)
			// The withdrawal races an in-flight grant: if the floor landed
			// here first, the release passed it on — don't report mastership
			// the release just gave away.
			return ctx.Err()
		case <-c.closed:
			return errors.New("core: connection closed")
		}
	}
}

// noteGranted records a server-acknowledged grant locally: the broadcast
// carrying it may still be in flight — or, on a client far behind on its
// control queue, evicted — and the caller must not observe Role() disagree
// with a grant the session just confirmed. The floor seq is left alone, so
// any genuinely newer transition broadcast still supersedes this.
func (c *Client) noteGranted(reason FloorReason) {
	c.mu.Lock()
	if c.master != c.name {
		c.master = c.name
		c.floorReason = reason
		close(c.masterCh)
		c.masterCh = make(chan struct{})
	}
	c.mu.Unlock()
}

// TryRequestMaster claims the master role only if the floor is free. A held
// floor is an explicit denial wrapping ErrFloorHeld and naming the holder —
// never a queue entry, never silence.
func (c *Client) TryRequestMaster(timeout time.Duration) error {
	if err := c.request(&envelope{Type: msgRequestMaster, NoWait: true}, timeout); err != nil {
		return err
	}
	c.noteGranted(FloorGranted)
	return nil
}

// StealMaster preempts the current holder (administrative takeover). The
// session honours it only under the steal floor policy; other policies deny
// with ErrFloorHeld.
func (c *Client) StealMaster(timeout time.Duration) error {
	if err := c.request(&envelope{Type: msgRequestMaster, Steal: true}, timeout); err != nil {
		return err
	}
	c.noteGranted(FloorStolen)
	return nil
}

// ReleaseMaster gives the floor up: the session grants it to the next
// queued requester, or leaves it free. Called by a non-holder it withdraws
// that client's queued request, if any; it is idempotent either way.
func (c *Client) ReleaseMaster(timeout time.Duration) error {
	return c.request(&envelope{Type: msgReleaseMaster}, timeout)
}

// GrantMaster transfers the master role to another attached client (master
// only): the paper's "coordinated cooperative steering".
func (c *Client) GrantMaster(to string, timeout time.Duration) error {
	return c.request(&envelope{Type: msgHandoffMaster, Target: to}, timeout)
}

// FloorReason explains the most recent master change observed by this
// client (0 before any change).
func (c *Client) FloorReason() FloorReason {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floorReason
}

// FloorPolicy returns the session's advertised floor arbitration policy.
func (c *Client) FloorPolicy() FloorPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// MasterLease returns the session's advertised master lease (0 = leases
// disabled).
func (c *Client) MasterLease() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease
}

// Close detaches and closes the connection.
func (c *Client) Close() error {
	c.once.Do(func() {
		c.codec.write(&envelope{Type: msgDetach}, time.Second)
		close(c.closed)
		c.codec.close()
	})
	return nil
}

// Done is closed when the client detaches or its connection fails; consumers
// draining Samples or Blobs select on it to learn the stream has ended.
func (c *Client) Done() <-chan struct{} { return c.closed }

// Err returns the read-loop error after the connection has failed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}
