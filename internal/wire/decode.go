package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// A Decoder reads messages from an input stream. It is not safe for
// concurrent use.
//
// Next returns each message in slices the caller owns. Receivers that
// decode a steady stream into storage of their own read the header with
// ReadHeader and the payload with the typed reader for its kind
// (ReadInt64s, ReadFloat64s, ReadStrings, ReadBlobs), which append to a
// slice the caller supplies and reuses; Next is ReadHeader plus
// ReadPayload, which runs the same readers on fresh slices.
type Decoder struct {
	r      *bufio.Reader
	hdr    [headerSize]byte
	limits Limits
	// lenBuf receives one variable-length element's length prefix, and
	// strBuf the bytes of one short string while it is looked up in intern.
	lenBuf [4]byte
	strBuf [maxInternLen]byte
	// intern maps short strings this decoder has returned to the one copy
	// it returned, so names that repeat on every frame (channels,
	// parameters, streams) are allocated once. Strings are immutable, so
	// handing the same copy to several messages is safe.
	intern map[string]string
}

// maxInternLen and maxInternEntries bound the intern table: only strings of
// at most maxInternLen bytes are interned, and a table that reaches
// maxInternEntries is cleared rather than grown, so a peer sending ever-new
// strings costs what it did without the table and never grows it.
const (
	maxInternLen     = 64
	maxInternEntries = 128
)

// readBufSize is the size of the read buffer a Decoder wraps around a
// plain io.Reader. Fixed-size payloads are converted straight out of it, so
// it is all the read-side memory a connection holds between messages; a
// read at least this large (a big blob) bypasses it into the caller's slice.
const readBufSize = 8 << 10

// maxPrealloc bounds the bytes allocated for one variable-length element
// before its data arrives: the top of the blob class's 64 KB–1 MB range, so
// typical blobs keep a single allocation while a header declaring a huge
// element costs memory only as its bytes are received.
const maxPrealloc = 1 << 20

// NewDecoder returns a Decoder reading from r with the default Limits.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{limits: Limits{}.withDefaults()}
	if br, ok := r.(*bufio.Reader); ok {
		d.r = br
	} else {
		d.r = bufio.NewReaderSize(r, readBufSize)
	}
	return d
}

// SetLimits replaces the decoder's allocation limits. Zero fields select the
// package defaults. Frames exceeding a limit fail with ErrTooLarge before
// their payload is allocated.
func (d *Decoder) SetLimits(l Limits) { d.limits = l.withDefaults() }

// Reset points the decoder at a new stream, keeping its limits, read buffer
// (unless r is itself a *bufio.Reader) and intern table: the reuse hook for
// pooled connections, journal replay and benchmarks.
func (d *Decoder) Reset(r io.Reader) {
	if br, ok := r.(*bufio.Reader); ok {
		d.r = br
		return
	}
	if d.r == nil {
		d.r = bufio.NewReaderSize(r, readBufSize)
		return
	}
	d.r.Reset(r)
}

// allocChunk bounds the number of elements allocated ahead of the data
// actually read, so a hostile header claiming a huge count cannot force a
// huge allocation: slices grow with the stream instead.
const allocChunk = 8192

// ReadHeader reads and validates the next message header. Its payload must
// be consumed next, with ReadPayload or the typed reader for Header.Kind,
// before the following header is read.
func (d *Decoder) ReadHeader() (Header, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return Header{}, err
	}
	if [4]byte(d.hdr[0:4]) != magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Tag:   binary.BigEndian.Uint32(d.hdr[4:8]),
		Kind:  Kind(d.hdr[8]),
		Count: binary.BigEndian.Uint32(d.hdr[12:16]),
	}
	if !h.Kind.Valid() {
		return Header{}, ErrBadKind
	}
	if h.Count > d.limits.MaxElements {
		return Header{}, fmt.Errorf("%w: %d elements (limit %d)", ErrTooLarge, h.Count, d.limits.MaxElements)
	}
	if sz := h.Kind.size(); sz > 0 {
		if int64(h.Count)*int64(sz) > int64(d.limits.MaxPayload) {
			return Header{}, fmt.Errorf("%w: %d-byte payload (limit %d)", ErrTooLarge, int64(h.Count)*int64(sz), d.limits.MaxPayload)
		}
	} else if int64(h.Count)*4 > int64(d.limits.MaxPayload) {
		// Variable-length elements carry at least a 4-byte length prefix
		// each, so the count alone bounds the minimum payload.
		return Header{}, fmt.Errorf("%w: %d variable-length elements (limit %d bytes)", ErrTooLarge, h.Count, d.limits.MaxPayload)
	}
	return h, nil
}

// Next reads the next message, whatever its tag and kind, into slices the
// caller owns.
func (d *Decoder) Next() (*Message, error) {
	h, err := d.ReadHeader()
	if err != nil {
		return nil, err
	}
	return d.ReadPayload(h)
}

// ReadPayload reads the payload of the message whose header ReadHeader just
// returned into fresh slices the caller owns.
func (d *Decoder) ReadPayload(h Header) (*Message, error) {
	m := &Message{Header: h}
	c := min(int(h.Count), allocChunk)
	var err error
	switch h.Kind {
	case KindInt32:
		m.Int32s, err = d.readInt32s(make([]int32, 0, c), h)
	case KindInt64:
		m.Int64s, err = d.ReadInt64s(make([]int64, 0, c), h)
	case KindFloat32:
		m.Float32s, err = d.readFloat32s(make([]float32, 0, c), h)
	case KindFloat64:
		m.Float64s, err = d.ReadFloat64s(make([]float64, 0, c), h)
	case KindBool:
		m.Bools, err = d.readBools(make([]bool, 0, c), h)
	case KindString:
		m.Strings, err = d.ReadStrings(make([]string, 0, c), h)
	case KindBytes:
		m.Blobs, err = d.ReadBlobs(make([][]byte, 0, c), h)
	default:
		err = ErrBadKind
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// The typed readers append the payload of the message whose header
// ReadHeader just returned to dst and return the extended slice. A header
// of another kind fails with ErrKindClash and consumes nothing. dst grows
// with the data actually read, never with the count the header claims.

// readInt32s appends an int32 payload to dst.
func (d *Decoder) readInt32s(dst []int32, h Header) ([]int32, error) {
	if err := h.expect(KindInt32); err != nil {
		return dst, err
	}
	for left := int(h.Count); left > 0; {
		buf, err := d.chunk(&left, 4)
		if err != nil {
			return dst, err
		}
		for ; len(buf) >= 4; buf = buf[4:] {
			dst = append(dst, int32(binary.BigEndian.Uint32(buf)))
		}
	}
	return dst, nil
}

// ReadInt64s appends an int64 payload to dst.
func (d *Decoder) ReadInt64s(dst []int64, h Header) ([]int64, error) {
	if err := h.expect(KindInt64); err != nil {
		return dst, err
	}
	for left := int(h.Count); left > 0; {
		buf, err := d.chunk(&left, 8)
		if err != nil {
			return dst, err
		}
		for ; len(buf) >= 8; buf = buf[8:] {
			dst = append(dst, int64(binary.BigEndian.Uint64(buf)))
		}
	}
	return dst, nil
}

// readFloat32s appends a float32 payload to dst.
func (d *Decoder) readFloat32s(dst []float32, h Header) ([]float32, error) {
	if err := h.expect(KindFloat32); err != nil {
		return dst, err
	}
	for left := int(h.Count); left > 0; {
		buf, err := d.chunk(&left, 4)
		if err != nil {
			return dst, err
		}
		for ; len(buf) >= 4; buf = buf[4:] {
			dst = append(dst, math.Float32frombits(binary.BigEndian.Uint32(buf)))
		}
	}
	return dst, nil
}

// ReadFloat64s appends a float64 payload to dst.
func (d *Decoder) ReadFloat64s(dst []float64, h Header) ([]float64, error) {
	if err := h.expect(KindFloat64); err != nil {
		return dst, err
	}
	for left := int(h.Count); left > 0; {
		buf, err := d.chunk(&left, 8)
		if err != nil {
			return dst, err
		}
		for ; len(buf) >= 8; buf = buf[8:] {
			dst = append(dst, math.Float64frombits(binary.BigEndian.Uint64(buf)))
		}
	}
	return dst, nil
}

// readBools appends a bool payload to dst.
func (d *Decoder) readBools(dst []bool, h Header) ([]bool, error) {
	if err := h.expect(KindBool); err != nil {
		return dst, err
	}
	for left := int(h.Count); left > 0; {
		buf, err := d.chunk(&left, 1)
		if err != nil {
			return dst, err
		}
		for _, b := range buf {
			dst = append(dst, b != 0)
		}
	}
	return dst, nil
}

// ReadStrings appends a string payload to dst. Strings of at most
// maxInternLen bytes come from the decoder's intern table, so a name the
// decoder has seen recently costs no allocation.
func (d *Decoder) ReadStrings(dst []string, h Header) ([]string, error) {
	if err := h.expect(KindString); err != nil {
		return dst, err
	}
	budget := d.limits.MaxPayload
	for i := uint32(0); i < h.Count; i++ {
		n, err := d.readLen(&budget)
		if err != nil {
			return dst, err
		}
		s, err := d.readString(n)
		if err != nil {
			return dst, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// ReadBlobs appends a bytes payload to dst, each element in its own
// exact-size allocation the caller owns.
func (d *Decoder) ReadBlobs(dst [][]byte, h Header) ([][]byte, error) {
	if err := h.expect(KindBytes); err != nil {
		return dst, err
	}
	budget := d.limits.MaxPayload
	for i := uint32(0); i < h.Count; i++ {
		n, err := d.readLen(&budget)
		if err != nil {
			return dst, err
		}
		b, err := d.readElem(n)
		if err != nil {
			return dst, err
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// expect reports ErrKindClash unless the header carries kind k.
func (h Header) expect(k Kind) error {
	if h.Kind != k {
		return fmt.Errorf("%w: %s message read as %s", ErrKindClash, h.Kind, k)
	}
	return nil
}

// chunk returns the next run of a fixed-size payload, at most one read
// buffer's worth, as a window into the read buffer itself, so nothing is
// copied or allocated ahead of conversion whatever count a (possibly
// hostile) header claims. The window aliases the buffer and is valid only
// until the decoder's next read: callers convert it before calling chunk
// again. left counts the elements still unread and is decremented by the
// run's length. Errors map as io.ReadFull's do: a run that gets no bytes
// returns io.EOF, a partial run io.ErrUnexpectedEOF.
func (d *Decoder) chunk(left *int, sz int) ([]byte, error) {
	c := min(*left, d.r.Size()/sz)
	buf, err := d.r.Peek(c * sz)
	// Peek leaves the bytes buffered, so Discard only advances past them
	// and the window stays intact.
	d.r.Discard(len(buf))
	if err != nil {
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	*left -= c
	return buf, nil
}

// readLen reads one variable-length element's length prefix, charging
// prefix and data against the message's remaining payload budget.
func (d *Decoder) readLen(budget *int) (int, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(d.lenBuf[:])
	if int64(n) > int64(d.limits.MaxBlobLen) {
		return 0, fmt.Errorf("%w: %d-byte blob (limit %d)", ErrTooLarge, n, d.limits.MaxBlobLen)
	}
	*budget -= 4 + int(n)
	if *budget < 0 {
		return 0, fmt.Errorf("%w: message payload exceeds %d bytes", ErrTooLarge, d.limits.MaxPayload)
	}
	return int(n), nil
}

// readElem reads one n-byte variable-length element into an exact-size
// slice the caller owns. At most maxPrealloc bytes are allocated before any
// data arrives; a longer element's buffer doubles, capped at n, as bytes
// are received, so a header declaring a huge element that never comes
// costs what was actually sent. Errors map as io.ReadFull's do.
func (d *Decoder) readElem(n int) ([]byte, error) {
	b := make([]byte, min(n, maxPrealloc))
	for got := 0; ; {
		m, err := io.ReadFull(d.r, b[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return b, nil
		}
		grown := make([]byte, min(2*len(b), n))
		copy(grown, b)
		b = grown
	}
}

// readString reads one n-byte string element, interning it when short.
func (d *Decoder) readString(n int) (string, error) {
	if n > maxInternLen {
		b, err := d.readElem(n)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	b := d.strBuf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	if s, ok := d.intern[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string)
	} else if len(d.intern) >= maxInternEntries {
		clear(d.intern)
	}
	d.intern[s] = s
	return s, nil
}

// Expect reads the next message and verifies its tag. A tag mismatch is a
// protocol error: the VISIT exchanges in this repository are strictly
// request/response ordered per connection.
func (d *Decoder) Expect(tag uint32) (*Message, error) {
	m, err := d.Next()
	if err != nil {
		return nil, err
	}
	if m.Header.Tag != tag {
		return nil, fmt.Errorf("wire: got tag %s, want %s", TagLabel(m.Header.Tag), TagLabel(tag))
	}
	return m, nil
}
