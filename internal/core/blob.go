package core

// Blob is the bulk binary frame class: an application-defined
// payload — compressed pixel tiles, a rendered frame, geometry — broadcast
// through the same refcounted FrameBuf fan-out as samples. Where a Sample
// is a small map of named float channels (~100 bytes on the wire), a Blob
// is one opaque byte payload in the 64KB–1MB range: it rides the
// size-classed frame pools and, on TCP conns, the zero-copy writev egress
// path (a blob payload is always far above the coalesce threshold).
//
// Stream names the logical flow the blob belongs to ("pixels", "tiles",
// "geometry") and doubles as the frame's interest key: subscribe-all
// clients receive every stream, selective clients opt in with a SubChannel
// subscription for the stream name. Seq, Encoding, Width, Height and Flags
// are carried verbatim for the publisher's own framing — keyframe/delta
// chains, codec discriminators, tile geometry — the session never
// interprets them.
//
// Blobs are never journaled: blob streams are delta-coded by
// their publisher, so a replayed delta without its keyframe is garbage —
// publishers re-key late joiners instead (see JournalBlob).
type Blob struct {
	// Stream is the flow name and interest key; "" broadcasts keyless
	// (every client receives it regardless of subscriptions).
	Stream string
	// Seq is the publisher's sequence number within the stream.
	Seq uint64
	// Encoding discriminates the payload format; application-defined.
	Encoding int64
	// Width/Height carry pixel-stream geometry; zero when meaningless.
	Width, Height int
	// Flags is application-defined framing state (keyframe bits, final-tile
	// markers...).
	Flags int64
	// Data is the payload. The session encodes it with one copy into the
	// pooled broadcast buffer; receivers get a slice they own outright.
	Data []byte
}

// ByteSize estimates the wire footprint of the blob for frame-pool sizing.
func (b *Blob) ByteSize() int {
	return len(b.Data) + len(b.Stream) + 160
}
