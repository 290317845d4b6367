package hub

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
	"repro/internal/journal"
)

// shard owns a disjoint subset of the hub's sessions: its own registry map
// under its own lock, its own writer pool draining those sessions' clients,
// and — when journaling is on — its own journal syncer batching
// flush/fsync for those sessions' logs. Sessions on different shards
// therefore never contend on a shared lock, a shared writer or a shared
// fsync.
type shard struct {
	pool   *core.WriterPool
	syncer *journal.Syncer // nil when journaling is off

	mu       sync.Mutex
	sessions map[string]*sessionEntry
}

// sessionEntry pairs a session with its journal (nil when journaling is
// off). The journal outlives the session's registration on disk, but its
// handle closes with the entry so a re-created session can reopen the
// directory immediately. An entry with a nil sess is a reservation:
// CreateSession holds the name while it opens the journal, so a duplicate
// create can never touch (or recover-truncate) a live session's log.
type sessionEntry struct {
	sess *core.Session
	jnl  *journal.Journal
	// gone closes when removal has fully completed — journal flushed and
	// closed, name freed. Evict waits on it so "returned" means "ready
	// for revival" even when the Done-watcher performed the removal.
	gone chan struct{}
}

func newShard(journaled bool) *shard {
	sh := &shard{
		pool:     core.NewWriterPool(),
		sessions: make(map[string]*sessionEntry),
	}
	if journaled {
		sh.syncer = journal.NewSyncer(0)
	}
	return sh
}

// hash64 spreads session names over the shards: FNV-1a, then the
// MurmurHash3 finaliser. FNV-1a's low bits depend only on the low bits of
// the name's bytes, so a modulo over a few shards would see little of the
// name; the finaliser folds the high bits down.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// reserve claims a name before its session (and journal) exist; duplicate
// names — live sessions or concurrent reservations — are an error.
func (sh *shard) reserve(name string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.sessions[name]; dup {
		return fmt.Errorf("hub: session %q already exists", name)
	}
	sh.sessions[name] = &sessionEntry{}
	return nil
}

// bind fills a reservation with its created session and journal.
func (sh *shard) bind(name string, sess *core.Session, jnl *journal.Journal) {
	sh.mu.Lock()
	sh.sessions[name] = &sessionEntry{sess: sess, jnl: jnl, gone: make(chan struct{})}
	sh.mu.Unlock()
}

// unreserve drops a reservation whose session never materialised.
func (sh *shard) unreserve(name string) {
	sh.mu.Lock()
	if e, ok := sh.sessions[name]; ok && e.sess == nil {
		delete(sh.sessions, name)
	}
	sh.mu.Unlock()
}

// remove unregisters name if it still maps to sess (an evict racing with a
// re-create must not remove the newcomer) and reports whether it did. The
// entry is downgraded to a reservation while the journal handle closes
// OUTSIDE the shard lock — the name stays claimed, so a revival can never
// open the directory alongside the flushing writer, but attaches, lookups
// and creates for the shard's other sessions proceed during the flush.
// Callers must only invoke remove once the session is closed, or its final
// broadcasts would miss the journal.
func (sh *shard) remove(name string, sess *core.Session) bool {
	sh.mu.Lock()
	cur, ok := sh.sessions[name]
	if !ok || cur.sess != sess {
		sh.mu.Unlock()
		return false
	}
	sh.sessions[name] = &sessionEntry{}
	sh.mu.Unlock()
	if cur.jnl != nil {
		cur.jnl.Close()
	}
	sh.unreserve(name)
	close(cur.gone)
	return true
}

// entry returns the bound entry for name, if any.
func (sh *shard) entry(name string) *sessionEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.sessions[name]
	if !ok || e.sess == nil {
		return nil
	}
	return e
}

// lookup returns the session named name, if registered and bound.
func (sh *shard) lookup(name string) (*core.Session, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.sessions[name]
	if !ok || e.sess == nil {
		return nil, false
	}
	return e.sess, true
}

// snapshot returns the shard's bound entries.
func (sh *shard) snapshot() []*sessionEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*sessionEntry, 0, len(sh.sessions))
	for _, e := range sh.sessions {
		if e.sess != nil {
			out = append(out, e)
		}
	}
	return out
}

func (sh *shard) close() {
	entries := sh.snapshot()
	for _, e := range entries {
		e.sess.Close()
	}
	sh.pool.Close()
	if sh.syncer != nil {
		sh.syncer.Close()
	}
	// Close journals last: sessions are down and the syncer has swept, so
	// this is the final flush of anything still buffered.
	for _, e := range entries {
		if e.jnl != nil {
			e.jnl.Close()
		}
	}
}
