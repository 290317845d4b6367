// Package hub multiplexes many concurrent steering sessions behind one
// listener: the broker-mediated layer between the paper's one-session
// deployment (one steered application, one core.Session, one port) and a
// production service hosting fleets of them. It follows the spirit of
// ShAppliT's broker-mediated application sharing and the vbroker of VISIT
// (section 3.3): participants dial one endpoint and name a session; the hub
// routes, the session steers.
//
// One goroutine carries a connection from accept to detach: it reads the
// attach frame, finds the named session and runs the session's read loop.
// The registry is split by a hash of the session name onto N shards, each
// with its own lock and core.WriterPool, so traffic for sessions on
// different shards never serialises on anything shared. A shard's sessions
// share its pool — the same pool a bare core.Session starts for itself —
// which coalesces every client's queued pre-encoded envelopes into batched
// writes and keeps core's drop-on-slow-client policy: a stalled viewer
// loses frames, never stalls a simulation and never holds a pool writer
// beyond one ControlTimeout.
package hub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// Config configures a Hub.
type Config struct {
	// Shards is the number of session shards; 0 selects GOMAXPROCS capped
	// at 8.
	Shards int
	// HandshakeTimeout bounds reading a connection's attach frame; 0
	// selects 5s.
	HandshakeTimeout time.Duration
	// MaxHandshakes caps connections allowed in the handshake phase at
	// once; 0 selects 512. Beyond the cap new connections are shed (closed
	// immediately) rather than queued: a flood of silent dialers can burn
	// at most MaxHandshakes × HandshakeTimeout of patience, never wedge the
	// accept path, and a shed client gets a fast failure it can retry.
	MaxHandshakes int
	// SessionDefaults seeds SampleQueue, ControlTimeout, FloorPolicy,
	// MasterLease, FanoutWorkers and ObserverInterval for sessions the hub
	// creates, wherever a session's own config leaves them unset.
	SessionDefaults core.SessionConfig
	// JournalDir, when non-empty, gives every session a durable on-disk
	// journal under JournalDir/<session-name>: broadcasts are logged
	// (encode-once — the journal stores the same bytes the clients get),
	// late joiners replay accumulated events and samples at attach, and a
	// session re-created under the same name reopens its log so
	// core.Session.Recover can revive its state.
	JournalDir string
	// JournalFsync fsyncs each batched journal flush: durability over raw
	// append throughput.
	JournalFsync bool
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.MaxHandshakes <= 0 {
		c.MaxHandshakes = 512
	}
}

// Stats aggregates activity across every session the hub hosts: the sum of
// the sessions' counters and floors, plus what only the hub knows.
type Stats struct {
	core.Stats
	// Floor sums every session's floor activity; Master stays empty, and
	// one session's floor is read from Lookup(name).FloorStats().
	Floor core.FloorStats

	Shards   int
	Sessions int
	Clients  int
	// TierSteerers and TierObservers split the connected clients across
	// the steering and observer delivery tiers.
	TierSteerers  int
	TierObservers int

	// Accept-path health: connections accepted, connections shed because
	// MaxHandshakes were already mid-handshake, and handshakes that failed
	// (bad frame, silent dialer hitting HandshakeTimeout).
	ConnsAccepted  uint64
	ConnsShed      uint64
	HandshakeFails uint64
}

// Hub hosts many concurrent core.Sessions behind one listener.
type Hub struct {
	cfg    Config
	shards []*shard

	defaultMu      sync.Mutex
	defaultSession string

	closeOnce sync.Once
	closeCh   chan struct{}
	closed    atomic.Bool

	// hsSem holds one slot per connection currently reading its attach
	// frame; Serve sheds connections when none is free.
	hsSem              chan struct{}
	statConnsAccepted  atomic.Uint64
	statConnsShed      atomic.Uint64
	statHandshakeFails atomic.Uint64
}

// New creates a hub ready to create sessions and serve listeners.
func New(cfg Config) *Hub {
	cfg.fill()
	h := &Hub{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		closeCh: make(chan struct{}),
		hsSem:   make(chan struct{}, cfg.MaxHandshakes),
	}
	for i := range h.shards {
		h.shards[i] = newShard(cfg.JournalDir != "")
	}
	return h
}

// ShardOf returns the shard index a session name routes to. It is a pure
// function of the name and the hub's shard count, so tests and operators
// can verify routing stability. The shard count is fixed for the hub's
// life and nothing persisted depends on placement (journal directories are
// keyed by name), so a plain modulo serves.
func (h *Hub) ShardOf(name string) int { return int(hash64(name) % uint64(len(h.shards))) }

// homeShard returns the shard that registers and serves name.
func (h *Hub) homeShard(name string) *shard { return h.shards[h.ShardOf(name)] }

// CreateSession creates and registers a session on its home shard. The
// session's queues are drained by the shard's writer pool, which replaces
// any cfg.Writer. The first session created becomes the default for clients
// that attach without naming one.
//
// With Config.JournalDir set the session gets a durable journal (an
// existing log directory for the name is recovered, so re-creating an
// evicted or pre-restart session makes its history replayable again; call
// Session.Recover after registering parameters to revive state).
func (h *Hub) CreateSession(cfg core.SessionConfig) (*core.Session, error) {
	if h.closed.Load() {
		return nil, errors.New("hub: closed")
	}
	if cfg.Name == "" {
		return nil, errors.New("hub: session needs a name")
	}
	if cfg.SampleQueue <= 0 {
		cfg.SampleQueue = h.cfg.SessionDefaults.SampleQueue
	}
	if cfg.ControlTimeout <= 0 {
		cfg.ControlTimeout = h.cfg.SessionDefaults.ControlTimeout
	}
	// Floor defaults fill only *unset* fields: an explicit FloorFIFO (not
	// the FloorUnset zero) survives a hub whose default is another policy,
	// and an explicit MasterLease < 0 means "leases disabled for this
	// session" despite a hub-wide lease default (core treats <= 0 as
	// disabled).
	if cfg.FloorPolicy == core.FloorUnset {
		cfg.FloorPolicy = h.cfg.SessionDefaults.FloorPolicy
	}
	if cfg.MasterLease == 0 {
		cfg.MasterLease = h.cfg.SessionDefaults.MasterLease
	}
	// Relay defaults follow the same unset-only rule: 0 inherits the hub
	// default, and an explicit negative keeps its core meaning (one worker;
	// observer coalescing disabled).
	if cfg.FanoutWorkers == 0 {
		cfg.FanoutWorkers = h.cfg.SessionDefaults.FanoutWorkers
	}
	if cfg.ObserverInterval == 0 {
		cfg.ObserverInterval = h.cfg.SessionDefaults.ObserverInterval
	}
	sh := h.homeShard(cfg.Name)
	// Reserve the name before touching any journal directory: a duplicate
	// create must fail here, never run recovery (and its torn-tail
	// truncation) on a live session's log.
	if err := sh.reserve(cfg.Name); err != nil {
		return nil, err
	}
	var jnl *journal.Journal
	if h.cfg.JournalDir != "" && cfg.Journal == nil {
		var err error
		jnl, err = journal.Open(journal.Options{
			Dir:   filepath.Join(h.cfg.JournalDir, sessionDirName(cfg.Name)),
			Fsync: h.cfg.JournalFsync,
		})
		if err != nil {
			sh.unreserve(cfg.Name)
			return nil, fmt.Errorf("hub: session journal: %w", err)
		}
		cfg.Journal = jnl
	}
	cfg.Writer = sh.pool
	sess := core.NewSession(cfg)
	sh.bind(cfg.Name, sess, jnl)
	if jnl != nil {
		jnl.SetSnapshot(sess.SnapshotFrames)
		sh.syncer.Watch(jnl)
	}
	// Close sets the flag before sweeping the shards, so either this
	// re-check sees it (tear the session straight back down — its journal
	// would otherwise sit behind a dead syncer, never flushed, its lock
	// never released) or the bind landed before the shard sweep and
	// shutdown handles it.
	if h.closed.Load() {
		sess.Close()
		sh.remove(cfg.Name, sess)
		return nil, errors.New("hub: closed")
	}
	h.defaultMu.Lock()
	if h.defaultSession == "" {
		h.defaultSession = cfg.Name
	}
	h.defaultMu.Unlock()

	// Evict the session from the registry when it closes — via Evict, or
	// the application's own Close (which a steered stop should end in, as
	// cmd/steerd's run loops do). Removal also closes the journal handle
	// (hub shutdown leaves that to shard.close, after the final sweep).
	go func() {
		select {
		case <-sess.Done():
			sh.remove(cfg.Name, sess)
		case <-h.closeCh:
		}
	}()
	return sess, nil
}

// sessionDirName maps a session name onto a safe directory name: the
// sanitised name for readability plus, always, a hash of the raw name —
// two distinct sessions must never share (and cross-write) one journal
// directory, including a literal name crafted to look like another name's
// sanitised form.
func sessionDirName(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	h := fnv.New64a()
	h.Write([]byte(name))
	return fmt.Sprintf("%s-%016x", strings.Trim(safe, "."), h.Sum64())
}

// Lookup returns the registered session with the given name.
func (h *Hub) Lookup(name string) (*core.Session, bool) {
	return h.homeShard(name).lookup(name)
}

// Evict closes and unregisters a session, detaching its clients. It reports
// whether the session was registered. The session closes first — every
// broadcast a client could still receive is already journaled — and only
// then does remove free the name and close the journal handle, atomically
// under the shard lock, so by the time Evict returns the directory is
// ready for revival and a racing re-create can never have opened it
// alongside the dying writer. (An app still emitting after the close
// reaches neither clients nor the journal: consistent, by construction.)
func (h *Hub) Evict(name string) bool {
	sh := h.homeShard(name)
	e := sh.entry(name)
	if e == nil {
		return false
	}
	e.sess.Close()
	// The Done-watcher (or this remove — whichever wins) frees the name
	// and closes the journal; wait for that completion so an immediate
	// re-create succeeds. A concurrent hub shutdown takes over cleanup.
	sh.remove(name, e.sess)
	select {
	case <-e.gone:
	case <-h.closeCh:
	}
	return true
}

// SetDefaultSession names the session served to clients that attach without
// one.
func (h *Hub) SetDefaultSession(name string) {
	h.defaultMu.Lock()
	h.defaultSession = name
	h.defaultMu.Unlock()
}

// SessionNames returns every registered session name, in no particular
// order.
func (h *Hub) SessionNames() []string {
	var out []string
	for _, sh := range h.shards {
		for _, e := range sh.snapshot() {
			out = append(out, e.sess.Name())
		}
	}
	return out
}

// Serve accepts connections from l until the hub closes or the listener
// fails permanently. Each connection gets one goroutine, which reads its
// attach frame under HandshakeTimeout (a stalled handshake never blocks the
// accept loop) and then serves it until it detaches. At most
// Config.MaxHandshakes connections read their attach frame at once —
// excess connections are shed with an immediate close, so a flood of
// silent or hostile dialers cannot exhaust goroutines — and a served
// connection holds no slot.
// Transient accept errors (EMFILE, aborted connections) back off
// exponentially instead of killing the listener.
func (h *Hub) Serve(l net.Listener) error {
	go func() {
		<-h.closeCh
		l.Close()
	}()
	const backoffMin, backoffMax = 5 * time.Millisecond, time.Second
	backoff := backoffMin
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-h.closeCh:
				return nil
			default:
			}
			if ne, ok := err.(net.Error); ok && (ne.Timeout() || isTemporary(err)) {
				select {
				case <-time.After(backoff):
				case <-h.closeCh:
					return nil
				}
				backoff = min(backoff*2, backoffMax)
				continue
			}
			return err
		}
		backoff = backoffMin
		h.statConnsAccepted.Add(1)
		select {
		case h.hsSem <- struct{}{}:
		default:
			// Every handshake slot is occupied: shed. Closing is kinder
			// than queueing — the dialer fails fast and can retry, and the
			// hub's exposure to slow-handshake abuse stays bounded.
			h.statConnsShed.Add(1)
			conn.Close()
			continue
		}
		go h.route(conn)
	}
}

// isTemporary reports whether err advertises itself as retryable. net.Error's
// Temporary is deprecated but still what syscall-level accept failures
// (EMFILE, ECONNABORTED) implement; consulting it via a local interface keeps
// the deprecation contained.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// route reads the attach frame, frees the connection's handshake slot and
// serves the connection on the calling goroutine until it detaches.
func (h *Hub) route(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(h.cfg.HandshakeTimeout))
	pc, err := core.AcceptConn(conn)
	<-h.hsSem
	if err != nil {
		h.statHandshakeFails.Add(1)
		return // AcceptConn closed the conn
	}
	conn.SetReadDeadline(time.Time{})

	name := pc.SessionName()
	if name == "" {
		h.defaultMu.Lock()
		name = h.defaultSession
		h.defaultMu.Unlock()
		if name == "" {
			pc.Reject("hub: no session named and no default configured")
			return
		}
	}
	// A closed session — evicted, or swept by Close — rejects the attach
	// itself, however late it closes: the connection is always answered.
	sess, ok := h.homeShard(name).lookup(name)
	if !ok {
		pc.Reject(fmt.Sprintf("hub: no session %q", name))
		return
	}
	sess.ServePending(pc)
}

// Stats sums the counters of every hosted session. It only reads: calling
// it changes nothing, so any number of readers may poll it.
func (h *Hub) Stats() Stats {
	st := Stats{
		Shards:         len(h.shards),
		ConnsAccepted:  h.statConnsAccepted.Load(),
		ConnsShed:      h.statConnsShed.Load(),
		HandshakeFails: h.statHandshakeFails.Load(),
	}
	for _, sh := range h.shards {
		for _, e := range sh.snapshot() {
			sess := e.sess
			st.Sessions++
			st.Clients += sess.ClientCount()
			steer, obs := sess.TierCounts()
			st.TierSteerers += steer
			st.TierObservers += obs
			st.Stats = st.Stats.Add(sess.Stats())
			st.Floor = st.Floor.Add(sess.FloorStats())
		}
	}
	return st
}

// Close terminates every session and shard; listeners passed to Serve shut
// down.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		h.closed.Store(true)
		close(h.closeCh)
		for _, sh := range h.shards {
			sh.close()
		}
	})
}
