package core

import (
	"bytes"

	"repro/internal/wire"
)

// Durability layer: a session may be given a JournalSink that receives every
// broadcast envelope as the exact pre-encoded []byte queued to clients —
// journaling a frame costs one append, never a re-encode (the protocol v2
// encode-once property extends to disk). The sink replays recorded frames
// during attach so late joiners converge on the event/sample history an
// always-attached client accumulated, and after a restart Recover rebuilds
// session state (parameter values, view, last sample) from the same log.
// internal/journal provides the durable segmented implementation; tests use
// in-memory fakes.

// JournalClass partitions journaled frames by their retention and replay
// semantics.
type JournalClass uint8

const (
	// JournalState marks parameter, view and master updates: snapshots of
	// live state. Later state supersedes earlier, so a compacting sink may
	// fold them into one snapshot, and attach catch-up skips them — the
	// welcome frame carries strictly newer state.
	JournalState JournalClass = iota + 1
	// JournalEvent marks progress/status events. Events accumulate
	// client-side, so catch-up replays them to late joiners.
	JournalEvent
	// JournalSample marks emitted samples. Catch-up replays them so a late
	// joiner has data before the next emission; a compacting sink may keep
	// only the freshest.
	JournalSample
	// JournalBlob marks bulk blob frames (pixel tiles, rendered frames,
	// geometry). They are never recorded or replayed: blob streams are
	// delta-coded by their publisher, so a replayed delta without its
	// keyframe is garbage, and durably retaining megabyte pixel history
	// would swamp the log for state nobody can reuse — publishers re-key
	// late joiners with a fresh keyframe instead. The class exists so
	// fanout can recognise and skip the journal tap on an otherwise
	// ordinary broadcast.
	JournalBlob
)

// JournalSink receives every broadcast envelope a session encodes and hands
// recorded frames back for late-joiner catch-up and state recovery.
//
// Record receives the broadcast's refcounted buffer — the same one sitting
// in client queues, so durability never re-encodes. The caller's reference
// is live only for the duration of the call: Record copies what it keeps
// into memory the sink owns and keeps no reference to the buffer, which
// therefore returns to the frame pool on its last fan-out release. Record
// must not block and must never mutate the bytes.
//
// Replay visits recorded frames oldest first until visit returns false.
// Replayed frames are immutable: the sink never rewrites them, so the
// caller may keep them past the visit without copying.
//
// The session serialises Record against Replay on its attach barrier, so a
// frame is seen exactly once by an attaching client: in the replay, or in
// its live queue — never both.
type JournalSink interface {
	// Record appends one broadcast frame, copying what the sink keeps.
	Record(class JournalClass, frame *FrameBuf)
	Replay(visit func(class JournalClass, frame []byte) bool)
}

// journalClassOf maps a broadcast envelope type to its journal class.
func journalClassOf(t msgType) JournalClass {
	switch t {
	case msgEvent:
		return JournalEvent
	case msgSample:
		return JournalSample
	case msgBlob:
		return JournalBlob
	default:
		return JournalState
	}
}

// decodeFrame decodes one journaled envelope from its recorded bytes, under
// the same limits a client applies to session traffic.
func decodeFrame(frame []byte) (*envelope, error) {
	return decodeEnvelope(wire.NewDecoder(bytes.NewReader(frame)), clientEnvelopeBudget)
}

// SnapshotFrames encodes the session's full steerable state — the complete
// parameter table and the shared view — as wire envelopes, the fold target
// a compacting journal replaces superseded state frames with. The frames
// are exactly what a broadcast would carry, so Recover replays them with no
// special casing.
func (s *Session) SnapshotFrames() [][]byte {
	params := s.params.snapshot()
	s.mu.Lock()
	view := cloneView(s.view)
	s.mu.Unlock()

	frames := make([][]byte, 0, 2)
	if len(params) > 0 {
		if buf, err := encodeEnvelope(nil, &envelope{Type: msgParamUpdate, Params: params}); err == nil {
			frames = append(frames, buf)
		}
	}
	if buf, err := encodeEnvelope(nil, &envelope{Type: msgViewUpdate, View: view}); err == nil {
		frames = append(frames, buf)
	}
	return frames
}

// Recover replays the configured journal into the session: parameter values
// are validated and applied through their registered apply functions, the
// shared view adopts the newest recorded revision, and the freshest sample
// becomes LastSample. Call it after registering parameters and before the
// simulation loop (it invokes apply callbacks on the calling goroutine, the
// same contract as Poll). The journal tap is muted while apply callbacks
// run, so a callback that broadcasts — an event echoing the parameter
// change — does not re-journal its echo on every restart. Frames for
// parameters
// that no longer exist are skipped. It returns the number of frames that
// changed state and the first decode error encountered, if any.
func (s *Session) Recover() (int, error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	applied := 0
	var firstErr error
	s.cfg.Journal.Replay(func(class JournalClass, frame []byte) bool {
		e, err := decodeFrame(frame)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return true
		}
		switch e.Type {
		case msgParamUpdate:
			n := 0
			// The mute spans only the synchronous apply callbacks — the
			// one place replay echoes originate. A concurrent legitimate
			// broadcast landing in this narrow window also skips the
			// journal; that is the accepted cost of keeping echoes from
			// growing the log on every restart.
			s.recovering.Store(true)
			for _, p := range e.Params {
				if _, err := s.params.applyAndGet(p.Name, p.Value); err == nil {
					n++
				}
			}
			s.recovering.Store(false)
			if n > 0 {
				applied++
			}
		case msgViewUpdate:
			if e.View == nil {
				return true
			}
			s.mu.Lock()
			if e.View.Seq >= s.viewSeq {
				s.view = *cloneView(*e.View)
				s.viewSeq = e.View.Seq
				applied++
			}
			s.mu.Unlock()
		case msgSample:
			s.lastSample.Store(e.Sample)
			applied++
		case msgMasterChanged:
			// Master state is connection-bound: the recorded holder belongs
			// to the previous process generation and its connection did not
			// survive the restart. Resurrecting the name would create a
			// phantom master no live client can release, steal from or
			// heartbeat for — so a restarted session always comes up with
			// the floor free and clients re-arbitrate under the floor
			// policy. The welcome frame and the replayed log therefore
			// agree: no master until somebody attached asks.
		}
		return true
	})

	// Clients may already be attached (a hub keeps its listener live while
	// a revived session recovers): broadcast the recovered state so their
	// pre-recovery welcome snapshots converge. The frames are journaled as
	// ordinary state records — compaction folds them.
	if applied > 0 {
		if params := s.params.snapshot(); len(params) > 0 {
			s.broadcastControl(&envelope{Type: msgParamUpdate, Params: params})
		}
		s.mu.Lock()
		view := cloneView(s.view)
		s.mu.Unlock()
		s.broadcastControl(&envelope{Type: msgViewUpdate, View: view})
	}
	return applied, firstErr
}
