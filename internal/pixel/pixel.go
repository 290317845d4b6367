// Package pixel holds the bitmap encodings shared by the pixel delivery
// tiers: the VizServer-style full-frame keyframe/XOR-delta codec and the
// vnc-style dirty-tile codec. Encoded frames are plain byte payloads made
// to ride the session engine's bulk blob frame class (core.Blob) — encoded
// once, fanned out to every subscribed viewer over the refcounted
// FrameBuf/writev path — rather than any per-connection stream format.
//
// Delta streams and freshest-wins delivery interact: a viewer that loses a
// blob to ring overwrite has no delta base for the next one. Publishers
// therefore re-key — on a new viewer, on a sequence gap, and on a periodic
// cadence — and viewers discard deltas until a keyframe re-anchors them
// (see Rekeyer and the vizserver/vnc packages).
//
// Codec state is pooled, not built per call: a deflater is 1.2 MB of tables
// and an inflater carries a 32 KB window, both far larger than the 16 KB
// tile they usually serve. Encoders deflate straight into the caller's
// buffer; decoders inflate into a scratch tile that is lent to the caller's
// callback (see DecodeTiles for the lifetime rule and MaxTileBytes for the
// memory bound). Writer.Reset is deterministic, so the bytes produced do
// not depend on what a pooled encoder compressed before.
package pixel

import (
	"bytes"
	"compress/flate"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Blob encodings, carried in core.Blob.Encoding.
const (
	// EncKey is a self-contained flate-compressed frame.
	EncKey int64 = iota
	// EncDelta is a flate-compressed XOR against the previous frame.
	EncDelta
	// EncTiles is a dirty-tile update: a sequence of tile records, each
	// raw or flate-compressed (the vnc-style encoding).
	EncTiles
)

// FlagKey, carried in core.Blob.Flags, marks a tile update that covers the
// whole framebuffer — a keyframe in tile clothing. Tile streams keep
// EncTiles as their payload encoding throughout; viewers map a flagged
// update to EncKey when consulting their Anchor so it re-anchors them.
const FlagKey int64 = 1

// encoder is the pooled deflate state: one BestSpeed flate.Writer whose sink
// appends to dst, so a stream lands directly behind whatever the caller has
// already put in its buffer.
type encoder struct {
	fw  *flate.Writer
	dst []byte
	xor []byte // AppendDelta's XOR image, grown to the largest frame seen
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	// NewWriter fails only on a level outside [-2, 9]; BestSpeed is a
	// constant inside it.
	e.fw, _ = flate.NewWriter(e, flate.BestSpeed)
	return e
}}

// Write is the flate.Writer's sink. It cannot fail, which is why deflate
// drops the errors of Write and Close.
func (e *encoder) Write(p []byte) (int, error) {
	e.dst = append(e.dst, p...)
	return len(p), nil
}

// deflate appends src's deflate stream to dst.
func (e *encoder) deflate(dst, src []byte) []byte {
	e.dst = dst
	e.fw.Reset(e)
	e.fw.Write(src)
	e.fw.Close()
	dst, e.dst = e.dst, nil
	return dst
}

// MaxFramebufferBytes bounds the framebuffer a viewer sizes from a peer's
// declared geometry (4096×4096 RGBA). Both viewers — the full-frame
// vizserver client and the dirty-tile vnc viewer — refuse a non-positive or
// larger geometry through FramebufferBytes before allocating anything.
const MaxFramebufferBytes = 4096 * 4096 * 4

// FramebufferBytes is the RGBA size of a w×h framebuffer declared off the
// wire, or an error if it falls outside (0, MaxFramebufferBytes]. The bound
// is checked by division, so no product of hostile dimensions can wrap.
func FramebufferBytes(w, h int64) (int, error) {
	if w <= 0 || h <= 0 || w > MaxFramebufferBytes/4/h {
		return 0, fmt.Errorf("pixel: framebuffer %dx%d outside 1..%d bytes", w, h, MaxFramebufferBytes)
	}
	return int(w * h * 4), nil
}

// maxExpansion is the most deflate can expand its input: 258 bytes from a
// 2-bit match (RFC 1951), 1032:1.
const maxExpansion = 1032

// checkInflate rejects, before anything is allocated for it, a declared size
// that n compressed bytes cannot inflate to (with one input byte of slack
// for the stream's final partial byte).
func checkInflate(want, n int) error {
	if want < 0 || want/maxExpansion > n {
		return fmt.Errorf("pixel: %d compressed bytes cannot hold a %d-byte frame", n, want)
	}
	return nil
}

// inflater is what flate.NewReader returns, by the two interfaces used.
type inflater interface {
	io.Reader
	flate.Resetter
}

// decoder is the pooled inflate state. pix is the tile scratch DecodeTiles
// lends to its callback; it grows to the largest tile seen and never past
// MaxTileBytes.
type decoder struct {
	src  bytes.Reader
	fr   inflater
	pix  []byte
	tail [1]byte
}

var decoders = sync.Pool{New: func() any {
	d := new(decoder)
	d.fr = flate.NewReader(&d.src).(inflater)
	return d
}}

// inflate fills dst from the deflate stream in data, which must hold
// exactly len(dst) bytes: a longer stream fails on its first excess byte
// instead of growing anything.
func (d *decoder) inflate(dst, data []byte) error {
	d.src.Reset(data)
	d.fr.Reset(&d.src, nil)
	if n, err := io.ReadFull(d.fr, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("pixel: frame %d bytes, want %d", n, len(dst))
		}
		return err
	}
	if n, err := d.fr.Read(d.tail[:]); n != 0 || err != io.EOF {
		if err == nil {
			err = fmt.Errorf("pixel: frame longer than %d bytes", len(dst))
		}
		return err
	}
	return nil
}

// grow returns b resized to n bytes, reallocating only when its capacity
// falls short; the contents are unspecified.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// AppendKey appends pix's self-contained encoding to dst.
func AppendKey(dst, pix []byte) []byte {
	e := encoders.Get().(*encoder)
	dst = e.deflate(dst, pix)
	encoders.Put(e)
	return dst
}

// EncodeKey encodes a self-contained frame.
func EncodeKey(pix []byte) []byte { return AppendKey(nil, pix) }

// DecodeKeyInto decodes a keyframe of the expected size into dst's
// capacity, reallocating only if it falls short, and returns the frame.
func DecodeKeyInto(dst, data []byte, size int) ([]byte, error) {
	if err := checkInflate(size, len(data)); err != nil {
		return nil, err
	}
	dst = grow(dst, size)
	d := decoders.Get().(*decoder)
	err := d.inflate(dst, data)
	decoders.Put(d)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeKey decodes a keyframe of the expected size.
func DecodeKey(data []byte, size int) ([]byte, error) { return DecodeKeyInto(nil, data, size) }

// AppendDelta appends cur's encoding as a compressed XOR against prev to
// dst. Frames that changed little compress dramatically — the paper's
// bandwidth claim.
func AppendDelta(dst, prev, cur []byte) ([]byte, error) {
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("pixel: delta frames differ in size: %d vs %d", len(prev), len(cur))
	}
	e := encoders.Get().(*encoder)
	e.xor = grow(e.xor, len(cur))
	subtle.XORBytes(e.xor, cur, prev)
	dst = e.deflate(dst, e.xor)
	encoders.Put(e)
	return dst, nil
}

// EncodeDelta encodes cur as a compressed XOR against prev.
func EncodeDelta(prev, cur []byte) ([]byte, error) { return AppendDelta(nil, prev, cur) }

// DecodeDeltaInto reverses AppendDelta against the receiver's previous
// frame, into dst's capacity as DecodeKeyInto does. dst must not overlap
// prev: a failed decode leaves prev intact.
func DecodeDeltaInto(dst, prev, data []byte, size int) ([]byte, error) {
	dst, err := DecodeKeyInto(dst, data, size)
	if err != nil {
		return nil, err
	}
	if len(prev) != size {
		return nil, fmt.Errorf("pixel: receiver frame %d bytes, want %d", len(prev), size)
	}
	subtle.XORBytes(dst, dst, prev)
	return dst, nil
}

// DecodeDelta reverses EncodeDelta against the receiver's previous frame.
func DecodeDelta(prev, data []byte, size int) ([]byte, error) {
	return DecodeDeltaInto(nil, prev, data, size)
}

// Tile record encodings inside an EncTiles payload.
const (
	tileRaw uint8 = iota
	tileFlate
)

// tileHeaderLen is the fixed record header: enc u8, x u32, y u32, w u16,
// h u16, len u32.
const tileHeaderLen = 17

// MaxTileBytes bounds one tile's raw pixels (1024×1024 RGBA). AppendTile
// refuses to encode a larger tile and DecodeTiles refuses one before
// touching memory, so it is also the bound on a pooled decoder's scratch —
// per concurrent DecodeTiles call, not per viewer: the pool is shared and
// the collector empties it.
const MaxTileBytes = 4 << 20

// Tile is one dirty rectangle of an EncTiles update.
type Tile struct {
	X, Y, W, H int
	// Pix is the tile's raw RGBA pixels, W*H*4 bytes row-major. A Tile
	// handed to a DecodeTiles callback lends Pix for the duration of that
	// call only.
	Pix []byte
}

// tileBytes is the raw size a w×h tile declares, or an error if a record
// could not carry it or it falls outside (0, MaxTileBytes].
func tileBytes(w, h int) (int, error) {
	if w <= 0 || h <= 0 || w > 0xFFFF || h > 0xFFFF || w > MaxTileBytes/4/h {
		return 0, fmt.Errorf("pixel: tile %dx%d outside 1..%d bytes", w, h, MaxTileBytes)
	}
	return w * h * 4, nil
}

// AppendTile appends one tile record to an EncTiles payload: a fixed
// header [enc u8, x u32, y u32, w u16, h u16, len u32] followed by the raw
// or flate-compressed pixels, whichever is smaller. The pixels are deflated
// in place behind the header; once buf has the capacity, nothing is
// allocated.
func AppendTile(buf []byte, t Tile) ([]byte, error) {
	want, err := tileBytes(t.W, t.H)
	if err != nil {
		return nil, err
	}
	if len(t.Pix) != want {
		return nil, fmt.Errorf("pixel: tile payload %d bytes, want %d", len(t.Pix), want)
	}
	var hdr [tileHeaderLen]byte
	hdr[0] = tileFlate
	binary.BigEndian.PutUint32(hdr[1:], uint32(t.X))
	binary.BigEndian.PutUint32(hdr[5:], uint32(t.Y))
	binary.BigEndian.PutUint16(hdr[9:], uint16(t.W))
	binary.BigEndian.PutUint16(hdr[11:], uint16(t.H))
	buf = append(buf, hdr[:]...)
	body := len(buf)
	e := encoders.Get().(*encoder)
	buf = e.deflate(buf, t.Pix)
	encoders.Put(e)
	if len(buf)-body >= want {
		buf = append(buf[:body], t.Pix...)
		buf[body-tileHeaderLen] = tileRaw
	}
	binary.BigEndian.PutUint32(buf[body-4:], uint32(len(buf)-body))
	return buf, nil
}

// DecodeTiles walks an EncTiles payload, invoking apply for every tile.
//
// Tile.Pix is valid only until apply returns: it aliases either data or a
// pooled scratch buffer that the next tile, or another caller, overwrites.
// A callback that wants the pixels later copies them (builds with the
// framedebug tag overwrite them after each call, so one that does not fails
// loudly).
//
// Nothing in data is trusted. A record whose tile is empty or larger than
// MaxTileBytes, whose raw payload is not exactly its declared size, or
// whose declared size its compressed payload could not inflate to, is
// rejected before any memory is sized by it, and a stream that inflates
// past its declared size fails on the first excess byte. A decoder
// therefore never holds more than MaxTileBytes of scratch plus flate's
// fixed state, whatever the input.
func DecodeTiles(data []byte, apply func(Tile) error) error {
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	return d.tiles(data, apply)
}

func (d *decoder) tiles(data []byte, apply func(Tile) error) error {
	for len(data) > 0 {
		if len(data) < tileHeaderLen {
			return fmt.Errorf("pixel: truncated tile header (%d bytes)", len(data))
		}
		enc := data[0]
		x := int(binary.BigEndian.Uint32(data[1:5]))
		y := int(binary.BigEndian.Uint32(data[5:9]))
		w := int(binary.BigEndian.Uint16(data[9:11]))
		h := int(binary.BigEndian.Uint16(data[11:13]))
		n := int(binary.BigEndian.Uint32(data[13:17]))
		data = data[tileHeaderLen:]
		if n > len(data) {
			return fmt.Errorf("pixel: tile payload %d bytes, have %d", n, len(data))
		}
		pix := data[:n]
		data = data[n:]
		want, err := tileBytes(w, h)
		if err != nil {
			return err
		}
		switch enc {
		case tileRaw:
			if n != want {
				return fmt.Errorf("pixel: tile %d bytes, want %d", n, want)
			}
			if poisonTiles {
				d.pix = grow(d.pix, want)
				copy(d.pix, pix)
				pix = d.pix
			}
		case tileFlate:
			if err := checkInflate(want, n); err != nil {
				return err
			}
			d.pix = grow(d.pix, want)
			if err := d.inflate(d.pix, pix); err != nil {
				return err
			}
			pix = d.pix
		default:
			return fmt.Errorf("pixel: unknown tile encoding %d", enc)
		}
		if err := apply(Tile{X: x, Y: y, W: w, H: h, Pix: pix}); err != nil {
			return err
		}
		poisonTile(pix)
	}
	return nil
}
