package core

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
	// BlobsEmitted/BlobBytes count blob-class broadcasts (bulk frames) and
	// their payload bytes; their deliveries and drops share
	// SamplesDelivered/SamplesDropped.
	BlobsEmitted uint64
	BlobBytes    uint64
	// Egress activity: batches written by writev and by one gathered
	// Write (conns without writev), frames (and bytes) copied into the
	// gather scratch, large-frame bytes handed to the kernel without a
	// copy, and the Writes beyond one that each writev batch's iovec would
	// have cost without writev.
	EgressBatchesVectored uint64
	EgressBatchesBuffered uint64
	EgressFramesCoalesced uint64
	EgressBytesCoalesced  uint64
	EgressBytesZeroCopy   uint64
	EgressSyscallsSaved   uint64
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

// Add returns the field-wise sum of st and o: the aggregate of two
// sessions' counters.
func (st Stats) Add(o Stats) Stats {
	st.SamplesEmitted += o.SamplesEmitted
	st.SamplesDelivered += o.SamplesDelivered
	st.SamplesDropped += o.SamplesDropped
	st.SteersApplied += o.SteersApplied
	st.SteersRejected += o.SteersRejected
	st.FramesFiltered += o.FramesFiltered
	st.RelayPublished += o.RelayPublished
	st.RelayCoalesced += o.RelayCoalesced
	st.RelayPushed += o.RelayPushed
	st.BlobsEmitted += o.BlobsEmitted
	st.BlobBytes += o.BlobBytes
	st.EgressBatchesVectored += o.EgressBatchesVectored
	st.EgressBatchesBuffered += o.EgressBatchesBuffered
	st.EgressFramesCoalesced += o.EgressFramesCoalesced
	st.EgressBytesCoalesced += o.EgressBytesCoalesced
	st.EgressBytesZeroCopy += o.EgressBytesZeroCopy
	st.EgressSyscallsSaved += o.EgressSyscallsSaved
	return st
}
