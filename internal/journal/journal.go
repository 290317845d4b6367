// Package journal persists a steering session's broadcast stream as an
// append-only, length-prefixed, CRC-checked log of the exact pre-encoded
// wire envelopes the session fans out — the durability layer under the
// collaborative-steering model: late joiners replay the log to converge on
// a running session's accumulated history, and a restarted daemon rebuilds
// session state from it (core.Session.Recover).
//
// The log is a directory of fixed-size-bounded segment files. Every record
// is classed (state / event / sample) so a compaction pass can fold
// superseded state frames into a snapshot — the session's full parameter
// table and view, fetched through the Snapshot callback — while retaining
// the event tail and the freshest sample. Recovery truncates a torn tail on
// the active segment, skips the corrupt remainder of older segments, and
// discards everything before the latest compaction barrier.
//
// A Journal keeps an in-memory mirror of the replayable records, so Replay
// (the attach catch-up path) never touches disk. Record is memory-only: it
// copies the broadcast frame into an append-only arena of fixed-size chunks
// the journal owns, and that one copy serves both the mirror and the
// pending disk batch. No reference to the caller's refcounted buffer
// (core.FrameBuf) is kept, so the buffer returns to the frame pool on its
// last fan-out release. Arena bytes are never rewritten: Replay hands out
// the mirrored slices themselves and a caller may keep them, because the
// garbage collector keeps a chunk alive while any slice refers to it.
// Compaction frees memory by copying its survivors into fresh chunks and
// dropping the old ones. All disk I/O — framing the batch, writes, fsync,
// segment rotation, compaction — happens on the maintenance path under a
// separate I/O lock, so the broadcast hot path never waits behind the disk.
// A Syncer (one per hub shard) sweeps the maintenance for every journal it
// watches; without one, Record runs the maintenance inline.
package journal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Record classes as stored on disk. The first three mirror core's
// JournalClass values bit-for-bit; the last two exist only inside the log.
const (
	recState  = byte(core.JournalState)
	recEvent  = byte(core.JournalEvent)
	recSample = byte(core.JournalSample)
	// recSnapshot is a full-state frame written by compaction; it replays
	// as JournalState.
	recSnapshot = 0x10
	// recReset is the compaction barrier: recovery discards every record
	// scanned before it — but only once the matching recCommit proves the
	// whole fold reached disk. A reset whose fold is torn (no commit) is
	// ignored, and the pre-fold history it would have superseded — still
	// on disk, deletion runs only after a durable fold — is served
	// instead.
	recReset = 0x11
	// recCommit seals a fold: written as the last record of the
	// compaction blob.
	recCommit = 0x12
)

// Options configure a Journal.
type Options struct {
	// Dir is the journal directory (one session per directory). Created if
	// missing.
	Dir string
	// SegmentBytes bounds one segment file before rotation; 0 selects
	// 1 MiB. A single maintenance sweep's batch (or a compaction fold)
	// always lands in one segment, so a burst may overgrow the bound by
	// one batch.
	SegmentBytes int
	// Fsync syncs the active segment on every maintenance flush (and on
	// Close). Off, durability is the OS's page cache.
	Fsync bool
	// CompactRecords triggers compaction when the replay mirror exceeds
	// this many records; 0 selects 4096. Compaction needs Snapshot.
	CompactRecords int
	// CompactBytes triggers compaction when the mirror's arena memory
	// exceeds this many bytes; 0 selects 4 MiB. It bounds what the mirror
	// holds: the arena bytes of the records since the last fold (at most
	// CompactBytes plus what arrives before the maintenance runs), the
	// fold's survivors, and at most two 64 KiB chunks of slack — the chunk
	// being filled, and the one records that arrived during the last fold
	// still share with dropped ones.
	CompactBytes int
	// RetainEvents is how many trailing event frames survive compaction;
	// 0 selects 128.
	RetainEvents int
	// Snapshot returns the owning session's full state as wire envelopes
	// (core.Session.SnapshotFrames); compaction replaces superseded state
	// records with its result. Nil disables compaction. Settable later via
	// SetSnapshot (the session usually exists only after the journal).
	Snapshot func() [][]byte
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactRecords <= 0 {
		o.CompactRecords = 4096
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 << 20
	}
	if o.RetainEvents <= 0 {
		o.RetainEvents = 128
	}
}

// record is one mirrored log entry. frame is journal-owned memory — arena
// bytes, or a snapshot frame the provider handed over — and is never
// rewritten.
type record struct {
	class byte
	frame []byte
}

// arenaChunk is the size of one mirror arena chunk: a couple of hundred
// sample-sized records per allocation.
const arenaChunk = 64 << 10

// arena is the append-only memory the mirror copies frames into. Bytes it
// has handed out are never rewritten, so a mirrored slice reads the same for
// as long as anything refers to it.
type arena struct {
	chunk []byte // the chunk being filled; len is its used prefix
}

// copy returns frame copied into arena memory, capped so that an append on
// the result cannot run into a neighbour, and the arena bytes the copy
// consumed: the frame, plus the unused tail of a chunk it abandoned. Frames
// over a quarter chunk get their own allocation, so an abandoned tail is
// never more than a quarter chunk.
func (a *arena) copy(frame []byte) ([]byte, int) {
	n := len(frame)
	if n > arenaChunk/4 {
		//steer:allow hotpathalloc oversize frame: its own exact-size allocation instead of a chunk
		return append(make([]byte, 0, n), frame...), n
	}
	cost := n
	if cap(a.chunk)-len(a.chunk) < n {
		cost += cap(a.chunk) - len(a.chunk)
		//steer:allow hotpathalloc cold chunk refill, once per ~64 KB of journaled frames; the tap benchmarks hold 0 allocs/op
		a.chunk = make([]byte, 0, arenaChunk)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, frame...)
	return a.chunk[off:len(a.chunk):len(a.chunk)], cost
}

// Stats counts journal activity.
type Stats struct {
	// Records and MirrorBytes size the replayable mirror (what a late
	// joiner's catch-up scans). MirrorBytes counts the arena memory the
	// records occupy: frame bytes, plus chunk tails no frame fitted into.
	Records     int
	MirrorBytes int
	// Segments is the number of live segment files.
	Segments int
	// Appends counts Record calls accepted since Open.
	Appends uint64
	// Compactions counts completed compaction passes.
	Compactions uint64
	// RecoveredRecords is how many records the opening scan yielded.
	RecoveredRecords int
	// SkippedSegments counts segments abandoned during recovery: a corrupt
	// header, or a mid-segment CRC mismatch (the remainder is skipped).
	SkippedSegments int
	// TruncatedBytes is how much torn tail recovery cut off the active
	// segment.
	TruncatedBytes int64
	// OversizedRecords counts frames too large to frame on disk
	// (maxRecordBytes); the mirror serves them live, a restart will not.
	OversizedRecords uint64
	// WriteErrs counts disk write/flush failures; the mirror stays
	// authoritative, so catch-up keeps working while disk state degrades.
	WriteErrs uint64
}

// Journal is a durable, compacting record of one session's broadcasts.
// It implements core.JournalSink. All methods are safe for concurrent use.
type Journal struct {
	opts Options

	// mu guards the memory state: the replay mirror, the pending disk
	// batch, and the counters. The broadcast hot path takes only this.
	mu       sync.Mutex
	recs     []record
	mirBytes int
	// arena is where Record copies frames; the mirror's older records may
	// live in chunks of arenas a compaction has since replaced.
	arena arena
	// tapped are records awaiting a maintenance write. They share their
	// frame with the mirror record; the maintenance sweep frames the bytes
	// on the disk path.
	tapped   []record
	snapshot func() [][]byte

	needsCompact bool
	closed       bool
	stats        Stats

	// lock holds the directory's cross-process advisory lock. Its Close is
	// nil-safe, so unlock paths need no platform- or state-dependent
	// branching.
	lock *dirLock

	// iomu guards the disk state; held across writes, fsync, rotation and
	// compaction rewrites — never while mu-holders need to proceed.
	iomu     sync.Mutex
	ioClosed bool // Close ran: no path may touch (or resurrect) disk state
	seg      *os.File
	segIndex uint64
	segSize  int64
	segments []uint64 // live segment indices, ascending
	// blobScratch is the maintenance path's reusable framing buffer
	// (guarded by iomu): a steady stream of appends costs no allocation on
	// the disk path either.
	blobScratch []byte
	// spareTapped is the emptied batch slice of the last sweep (guarded by
	// iomu), swapped in for the next one so the batch is not regrown.
	spareTapped []record

	writeErrs atomic.Uint64

	// notify hands maintenance duty to a Syncer; nil means Record runs it
	// inline. notified edge-triggers one wakeup per dirty period.
	notify   func(*Journal)
	notified atomic.Bool
}

// Open creates or recovers the journal in opts.Dir.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir required")
	}
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{opts: opts, snapshot: opts.Snapshot, lock: lock}
	if err := j.recoverDir(); err != nil {
		lock.Close()
		return nil, err
	}
	return j, nil
}

// SetSnapshot installs the full-state provider compaction folds superseded
// state records into (typically core.Session.SnapshotFrames of the session
// this journal records).
func (j *Journal) SetSnapshot(fn func() [][]byte) {
	j.mu.Lock()
	j.snapshot = fn
	j.mu.Unlock()
}

// Record implements core.JournalSink: it appends one broadcast frame. The
// mirror is updated synchronously — an attach racing this call replays a
// consistent prefix. The frame is copied once into the journal's arena,
// shared by the mirror and the pending disk batch, and fb is not kept past
// return; the on-disk framing happens on the maintenance path. Without a
// Syncer the maintenance (write, fsync, compaction) runs inline before
// returning.
//
//steer:hotpath
func (j *Journal) Record(class core.JournalClass, fb *core.FrameBuf) {
	switch class {
	case core.JournalState, core.JournalEvent, core.JournalSample:
	default:
		return
	}
	j.mu.Lock() //steer:allow hotpathalloc journal tap mutex; held for a frame copy and slice appends only, disk I/O is under iomu on the maintenance path
	if j.closed {
		j.mu.Unlock()
		return
	}
	frame, cost := j.arena.copy(fb.Bytes())
	r := record{class: byte(class), frame: frame}
	j.recs = append(j.recs, r)
	j.mirBytes += cost
	if 1+len(frame) > maxRecordBytes {
		j.stats.OversizedRecords++
	} else {
		j.tapped = append(j.tapped, r)
	}
	j.stats.Appends++
	if j.snapshot != nil && (len(j.recs) > j.opts.CompactRecords || j.mirBytes > j.opts.CompactBytes) {
		j.needsCompact = true
	}
	notify := j.notify
	j.mu.Unlock()
	if notify == nil {
		j.Maintain()
	} else if !j.notified.Swap(true) {
		notify(j)
	}
}

// Replay implements core.JournalSink: it visits the mirrored records oldest
// first until visit returns false. Compaction-written snapshot frames visit
// as JournalState. The visit runs without the journal lock on the mirror as
// it stood at the call: a compaction swapping the mirror mid-replay leaves
// this replay on its pre-compaction view. Frames are immutable journal
// memory, so the caller may keep them past the visit.
func (j *Journal) Replay(visit func(class core.JournalClass, frame []byte) bool) {
	j.mu.Lock()
	recs := j.recs
	j.mu.Unlock()
	for _, r := range recs {
		class := r.class
		if class == recSnapshot {
			class = recState
		}
		if !visit(core.JournalClass(class), r.frame) {
			return
		}
	}
}

// Maintain frames and writes the pending batch (fsyncing per
// Options.Fsync), rotating a full segment first, and runs a pending
// compaction. Syncers call it once per sweep; it is also safe to call
// directly. Disk I/O happens under the I/O lock only — Record never waits
// on it — and the batch is stolen under BOTH locks, so concurrent
// Maintains cannot reorder batches on disk and a racing Close either
// steals the batch itself or waits out this write: nothing is silently
// dropped mid-handoff. The emptied batch slice becomes the next sweep's.
//
//steer:coldpath
func (j *Journal) Maintain() {
	j.notified.Store(false)
	j.iomu.Lock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		j.iomu.Unlock()
		return
	}
	tapped := j.tapped
	j.tapped = j.spareTapped
	doCompact := j.needsCompact
	j.needsCompact = false
	j.mu.Unlock()
	if len(tapped) > 0 {
		j.flushTappedLocked(tapped)
	}
	clear(tapped) // a kept slice must not pin chunks a compaction dropped
	j.spareTapped = tapped[:0]
	j.iomu.Unlock()
	if doCompact {
		j.Compact()
	}
}

// flushTappedLocked frames a stolen batch into the scratch blob and writes
// it (fsyncing per Options.Fsync inside writeBlobLocked). Caller holds iomu.
func (j *Journal) flushTappedLocked(tapped []record) {
	blob := j.blobScratch[:0]
	for i := range tapped {
		blob = appendRecord(blob, tapped[i].class, tapped[i].frame)
	}
	j.writeBlobLocked(blob)
	if cap(blob) <= maxBlobScratch {
		j.blobScratch = blob[:0]
	} else {
		j.blobScratch = nil // a burst must not pin its arena forever
	}
}

// maxBlobScratch bounds the framing buffer capacity kept between sweeps.
const maxBlobScratch = 4 << 20

// Compact runs a compaction pass (a no-op without a snapshot provider):
// superseded state records collapse into the snapshot provider's
// full-state frames, trailing events and the freshest sample survive. The
// fold is persisted as a reset barrier plus the folded records at the head
// of a fresh segment, after which every older segment is deleted — a crash
// between the write and the deletes loses nothing, recovery discards
// pre-barrier records anyway. The surviving events and sample are copied
// into a fresh arena, which becomes the one Record fills next, so the
// chunks they shared with dropped records become garbage once no replay
// still refers to them.
//
//steer:coldpath
func (j *Journal) Compact() {
	j.iomu.Lock()
	defer j.iomu.Unlock()

	// Phase 1: snapshot the inputs. Only a slice header is taken under
	// the hot-path lock; the fold itself (session state encode, survivor
	// copies, CRC framing of up to CompactBytes of records) runs with iomu
	// alone, so an emit's Record never stalls behind it. base's frames are
	// immutable arena bytes, so reading them without the lock is safe.
	j.mu.Lock()
	if j.closed || j.snapshot == nil {
		j.mu.Unlock()
		return
	}
	snap := j.snapshot
	base := j.recs
	j.mu.Unlock()

	state := snap()
	var kept []record
	var lastSample *record
	for i := range base {
		switch base[i].class {
		case recEvent:
			kept = append(kept, base[i])
		case recSample:
			lastSample = &base[i]
		}
	}
	if len(kept) > j.opts.RetainEvents {
		kept = kept[len(kept)-j.opts.RetainEvents:]
	}
	if lastSample != nil {
		kept = append(kept, *lastSample)
	}
	// Snapshot frames are already fresh memory from the provider; the kept
	// events and sample are copied out of the chunks the fold drops.
	fresh := make([]record, 0, len(state)+len(kept))
	var survivors arena
	mirBytes := 0
	for _, f := range state {
		fresh = append(fresh, record{class: recSnapshot, frame: f})
		mirBytes += len(f)
	}
	for _, r := range kept {
		frame, cost := survivors.copy(r.frame)
		fresh = append(fresh, record{class: r.class, frame: frame})
		mirBytes += cost
	}
	// Only compaction-minted snapshot frames are NEW oversize counts;
	// retained records were counted when first recorded.
	var oversized uint64
	blob := appendRecord(nil, recReset, nil)
	for _, r := range fresh {
		if 1+len(r.frame) > maxRecordBytes {
			if r.class == recSnapshot {
				oversized++
			}
			continue
		}
		blob = appendRecord(blob, r.class, r.frame)
	}

	// Phase 2: swap the fold in. Records that arrived during the fold are
	// the tail beyond the snapshotted prefix — they join the fresh mirror
	// and the blob (the tapped batch is stolen with the rest, since the
	// blob now carries its content past the reset barrier; no Maintain can
	// hold a stolen batch here, steals happen under iomu which we hold).
	// The tail stays in the chunk Record copied it into; the survivors'
	// arena takes over as the one Record fills.
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	for _, r := range j.recs[len(base):] {
		fresh = append(fresh, r)
		mirBytes += len(r.frame)
		if 1+len(r.frame) > maxRecordBytes {
			continue // counted when recorded
		}
		blob = appendRecord(blob, r.class, r.frame)
	}
	clear(j.tapped)
	j.tapped = j.tapped[:0]
	j.recs = fresh
	j.arena = survivors
	j.mirBytes = mirBytes
	j.needsCompact = false
	j.stats.Compactions++
	j.stats.OversizedRecords += oversized
	j.mu.Unlock()

	// Phase 3: persist — reset barrier + fold + commit at the head of a
	// fresh segment, then drop every older segment. If the fold never
	// (fully) reached disk, the older segments are the only durable
	// history left: keep them — recovery ignores a commit-less reset and
	// reads their records, and the next compaction retries.
	blob = appendRecord(blob, recCommit, nil)
	if err := j.rotateLocked(); err != nil {
		j.writeErrs.Add(1)
		j.retryCompact()
		return
	}
	keep := j.segIndex
	errsBefore := j.writeErrs.Load()
	j.writeBlobLocked(blob)
	if j.writeErrs.Load() != errsBefore {
		j.retryCompact()
		return
	}
	live := j.segments[:0]
	for _, idx := range j.segments {
		if idx < keep {
			os.Remove(j.segPath(idx))
		} else {
			live = append(live, idx)
		}
	}
	j.segments = live
	if j.opts.Fsync {
		// The deletes are directory metadata; make them durable so a
		// crash cannot resurrect pre-fold segments after their fold.
		j.syncDir()
	}
}

// retryCompact re-arms compaction after a failed fold persist: the folded
// records live only in the mirror until a retry lands them on disk (the
// next maintenance after the next append; a crash before then loses the
// folded middle, which is the bounded cost of a sick disk).
func (j *Journal) retryCompact() {
	j.mu.Lock()
	if !j.closed {
		j.needsCompact = true
	}
	j.mu.Unlock()
}

// Close writes the pending batch and closes the active segment. Further
// Records are dropped; Replay keeps serving the mirror. A failed final
// write also counts into
// Stats.WriteErrs, so callers that discard the error (a hub evicting a
// session) still leave an observable trace of the lost tail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	tapped := j.tapped
	j.tapped = nil
	j.mu.Unlock()

	j.iomu.Lock()
	defer j.iomu.Unlock()
	errsBefore := j.writeErrs.Load()
	if len(tapped) > 0 {
		j.flushTappedLocked(tapped)
	}
	j.ioClosed = true
	if j.seg != nil {
		if j.opts.Fsync {
			if err := j.seg.Sync(); err != nil {
				j.writeErrs.Add(1)
			}
		}
		if err := j.seg.Close(); err != nil {
			j.writeErrs.Add(1)
		}
		j.seg = nil
	}
	j.lock.Close() // releases the directory's advisory lock; nil-safe
	if j.writeErrs.Load() != errsBefore {
		return errors.New("journal: close failed to persist the buffered tail")
	}
	return nil
}

// Stats returns a snapshot of the activity counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	st := j.stats
	st.Records = len(j.recs)
	st.MirrorBytes = j.mirBytes
	j.mu.Unlock()
	j.iomu.Lock()
	st.Segments = len(j.segments)
	j.iomu.Unlock()
	st.WriteErrs = j.writeErrs.Load()
	return st
}

// crcRecord checksums a record body (class byte + frame) without
// materialising it. The class byte is folded in through the IEEE table by
// hand: a one-byte slice handed to crc32 escapes, one allocation per
// framed record.
func crcRecord(class byte, frame []byte) uint32 {
	crc := ^(crc32.IEEETable[byte(0xFF)^class] ^ (^uint32(0) >> 8))
	return crc32.Update(crc, crc32.IEEETable, frame)
}
