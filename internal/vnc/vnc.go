// Package vnc implements application-oblivious framebuffer sharing in the
// style the paper uses vnc for: "the use of vnc to distribute a desktop on
// which the simulation is being displayed" (section 1), including its
// defining property that "the application is not aware that a collaborative
// session is going on" (section 4.6).
//
// The protocol is a compact RFB analogue over wire framing: the server keeps
// the current framebuffer, divides updates into 16×16 tiles, ships only
// dirty tiles (flate-compressed when that wins), and accepts input events
// from viewers. Bandwidth therefore scales with *screen content change* —
// the property the collaboration-scaling experiment (E12) contrasts against
// COVISE's parameter synchronisation.
package vnc

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// TileSize is the edge length of a protocol tile in pixels.
const TileSize = 16

// MaxFramebufferBytes bounds the framebuffer a viewer sizes from a peer's
// declared geometry (4096×4096 RGBA). Viewer and Attach refuse a
// non-positive or larger geometry before allocating anything.
const MaxFramebufferBytes = 4096 * 4096 * 4

// framebufferBytes is the RGBA size of a w×h framebuffer declared off the
// wire, or an error if it falls outside (0, MaxFramebufferBytes].
func framebufferBytes(w, h int64) (int, error) {
	if w <= 0 || h <= 0 || w > MaxFramebufferBytes/4/h {
		return 0, fmt.Errorf("vnc: framebuffer %dx%d outside 1..%d bytes", w, h, MaxFramebufferBytes)
	}
	return int(w * h * 4), nil
}

// wire tags of the protocol.
const (
	tagInit     = 0x00F1 // Int32s [w, h]
	tagTileHdr  = 0x00F2 // Int32s [x, y, w, h, encoding, frameSeq]
	tagTileData = 0x00F3 // Bytes
	tagFrameEnd = 0x00F4 // Int32s [frameSeq, dirtyTiles]
	tagInput    = 0x00F5 // Int32s [kind, a, b, c]
)

// tile encodings.
const (
	encRaw int32 = iota
	encFlate
)

// EventKind classifies input events.
type EventKind int32

// Input event kinds.
const (
	EventPointer EventKind = iota + 1 // a=x, b=y, c=button mask
	EventKey                          // a=keysym, c=1 down / 0 up
)

// Event is one viewer input event forwarded to the application side.
type Event struct {
	Kind    EventKind
	A, B, C int32
}

// compressTile returns the best encoding of raw tile bytes.
func compressTile(raw []byte) (enc int32, data []byte) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return encRaw, raw
	}
	if _, err := w.Write(raw); err != nil {
		return encRaw, raw
	}
	if err := w.Close(); err != nil {
		return encRaw, raw
	}
	if buf.Len() < len(raw) {
		return encFlate, buf.Bytes()
	}
	return encRaw, raw
}

// decompressTile reverses compressTile. A flate stream inflates to at most
// want+1 bytes, enough for applyTile to see the size mismatch.
func decompressTile(enc int32, data []byte, want int) ([]byte, error) {
	switch enc {
	case encRaw:
		return data, nil
	case encFlate:
		r := io.LimitReader(flate.NewReader(bytes.NewReader(data)), int64(want)+1)
		out := make([]byte, 0, want)
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("vnc: unknown tile encoding %d", enc)
	}
}

// tileRect computes tile t's pixel rectangle in a w×h buffer.
func tileRect(tx, ty, w, h int) (x, y, tw, th int) {
	x, y = tx*TileSize, ty*TileSize
	tw, th = TileSize, TileSize
	if x+tw > w {
		tw = w - x
	}
	if y+th > h {
		th = h - y
	}
	return x, y, tw, th
}

// extractTile copies a tile's pixels out of a framebuffer, into dst's
// capacity when it suffices.
func extractTile(dst, pix []byte, w, x, y, tw, th int) []byte {
	dst = dst[:0]
	for row := 0; row < th; row++ {
		src := ((y+row)*w + x) * 4
		dst = append(dst, pix[src:src+tw*4]...)
	}
	return dst
}

// applyTile writes a tile's pixels into a framebuffer.
func applyTile(pix []byte, w int, x, y, tw, th int, data []byte) error {
	if len(data) != tw*th*4 {
		return fmt.Errorf("vnc: tile payload %d bytes, want %d", len(data), tw*th*4)
	}
	// The rectangle comes off the wire: one outside the framebuffer is the
	// sender's error, not an index to trust.
	if x < 0 || y < 0 || tw < 0 || th < 0 || x+tw > w || (y+th)*w*4 > len(pix) {
		return fmt.Errorf("vnc: tile %dx%d at (%d,%d) outside the framebuffer", tw, th, x, y)
	}
	for row := 0; row < th; row++ {
		dst := ((y+row)*w + x) * 4
		copy(pix[dst:dst+tw*4], data[row*tw*4:(row+1)*tw*4])
	}
	return nil
}

// tileDirty reports whether the tile differs between two framebuffers.
func tileDirty(a, b []byte, w, x, y, tw, th int) bool {
	for row := 0; row < th; row++ {
		off := ((y+row)*w + x) * 4
		if !bytes.Equal(a[off:off+tw*4], b[off:off+tw*4]) {
			return true
		}
	}
	return false
}
