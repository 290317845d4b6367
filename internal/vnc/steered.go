package vnc

import (
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/pixel"
)

// This file is the hub-native desktop tier: the same 16×16 dirty-tile
// protocol, but published once per update as a bulk blob on a steering
// session instead of once per viewer over bespoke connections. The session
// engine supplies the fan-out (refcounted frame buffers, vectored egress,
// freshest-wins rings for slow viewers) and the audience bookkeeping the
// bespoke server tracks by hand. Input events stay on the bespoke path —
// the hub tier is the E12 observer shape, display-only by construction.

// DesktopStream is the blob stream name tile updates are published on.
const DesktopStream = "desktop"

// Publisher shares one framebuffer with every subscribed session client.
type Publisher struct {
	session *core.Session
	st      *core.Steered
	w, h    int

	mu      sync.Mutex
	current []byte // last published framebuffer (RGBA)
	rekey   pixel.Rekeyer
	stats   PublisherStats
	// Reused across updates (EmitBlob copies the payload into its frame):
	// the framebuffer before current, one tile's pixels, the tile payload.
	spare, tile, payload []byte
}

// PublisherStats counts hub-tier publish activity.
type PublisherStats struct {
	Updates   uint64
	Keyframes uint64
	TilesSent uint64
	BytesSent uint64
}

// NewPublisher binds a w×h RGBA desktop (initially black) to a session.
func NewPublisher(session *core.Session, w, h int) (*Publisher, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("vnc: bad framebuffer size %dx%d", w, h)
	}
	return &Publisher{
		session: session,
		st:      session.Steered(),
		w:       w, h: h,
		current: make([]byte, w*h*4),
	}, nil
}

// Update publishes a new framebuffer as one tile blob: the dirty tiles
// against the previous frame, or every tile when the audience grew or the
// keyframe cadence came due (late joiners and gapped viewers re-anchor on
// full-coverage updates). It returns the number of dirty tiles. An update
// with no dirty tiles is still published — an empty one keeps the viewers'
// delta chains unbroken. pix must be w*h*4 bytes.
func (p *Publisher) Update(pix []byte) (int, error) {
	if len(pix) != p.w*p.h*4 {
		return 0, fmt.Errorf("vnc: framebuffer %d bytes, want %d", len(pix), p.w*p.h*4)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.current
	p.current = append(p.spare[:0], pix...)
	p.spare = prev
	seq, key := p.rekey.Next(p.session.ClientCount())

	tilesX := (p.w + TileSize - 1) / TileSize
	tilesY := (p.h + TileSize - 1) / TileSize
	dirty := 0
	payload := p.payload[:0]
	var err error
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			x, y, tw, th := tileRect(tx, ty, p.w, p.h)
			isDirty := tileDirty(prev, pix, p.w, x, y, tw, th)
			if isDirty {
				dirty++
			}
			if !isDirty && !key {
				continue
			}
			p.tile = extractTile(p.tile, pix, p.w, x, y, tw, th)
			payload, err = pixel.AppendTile(payload, pixel.Tile{X: x, Y: y, W: tw, H: th, Pix: p.tile})
			if err != nil {
				return dirty, err
			}
			p.stats.TilesSent++
		}
	}

	var flags int64
	if key {
		flags = pixel.FlagKey
		p.stats.Keyframes++
	}
	p.st.EmitBlob(&core.Blob{
		Stream: DesktopStream, Seq: seq, Encoding: pixel.EncTiles,
		Width: p.w, Height: p.h, Flags: flags, Data: payload,
	})
	p.payload = payload
	p.stats.Updates++
	p.stats.BytesSent += uint64(len(payload))
	return dirty, nil
}

// Stats returns a copy of the counters.
func (p *Publisher) Stats() PublisherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Viewer consumes a hub-published desktop: the display half of a vnc client
// attached through a steering session.
type Viewer struct {
	cc *core.Client

	mu       sync.Mutex
	w, h     int
	pix      []byte
	anchor   pixel.Anchor
	frameSeq uint64
	frames   uint64
	tiles    uint64
	rxBytes  uint64
	readErr  error

	wg sync.WaitGroup
}

// AttachViewer joins a session as a desktop viewer, subscribing to the tile
// stream on top of whatever options the caller sets (session name on a hub,
// delivery tier, client name).
func AttachViewer(ctx context.Context, conn net.Conn, opts core.AttachOptions) (*Viewer, error) {
	if opts.BlobBuffer == 0 {
		opts.BlobBuffer = 8
	}
	opts.Subscriptions = append(opts.Subscriptions, core.ChannelSub(DesktopStream))
	cc, err := core.AttachContext(ctx, conn, opts)
	if err != nil {
		return nil, err
	}
	v := &Viewer{cc: cc}
	v.wg.Add(1)
	go v.readLoop()
	return v, nil
}

// Core exposes the underlying steering client.
func (v *Viewer) Core() *core.Client { return v.cc }

func (v *Viewer) readLoop() {
	defer v.wg.Done()
	for {
		select {
		case b := <-v.cc.Blobs():
			v.apply(b)
		case <-v.cc.Done():
			v.mu.Lock()
			v.readErr = v.cc.Err()
			v.mu.Unlock()
			return
		}
	}
}

// apply decodes one tile blob into the local framebuffer. Partial updates
// only apply on an unbroken sequence; after a gap (ring eviction on a slow
// link) the viewer holds its last good frame until a full-coverage update
// re-anchors it. A blob declaring a geometry outside
// (0, pixel.MaxFramebufferBytes] is dropped the same way, before it sizes
// anything.
func (v *Viewer) apply(b *core.Blob) {
	if b.Stream != DesktopStream || b.Encoding != pixel.EncTiles {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := pixel.FramebufferBytes(int64(b.Width), int64(b.Height))
	if err != nil {
		v.anchor = pixel.Anchor{} // hold until the next full update
		return
	}
	anchorEnc := pixel.EncTiles
	if b.Flags&pixel.FlagKey != 0 {
		anchorEnc = pixel.EncKey
	}
	if !v.anchor.Accept(b.Seq, anchorEnc) {
		return
	}
	if v.w != b.Width || v.h != b.Height {
		v.w, v.h = b.Width, b.Height
		v.pix = make([]byte, n)
	}
	err = pixel.DecodeTiles(b.Data, func(t pixel.Tile) error {
		v.tiles++
		return applyTile(v.pix, v.w, t.X, t.Y, t.W, t.H, t.Pix)
	})
	if err != nil {
		v.anchor = pixel.Anchor{} // hold until the next full update
		return
	}
	v.frameSeq = b.Seq
	v.frames++
	v.rxBytes += uint64(len(b.Data))
}

// Framebuffer returns a copy of the last decoded frame.
func (v *Viewer) Framebuffer() []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]byte(nil), v.pix...)
}

// Checksum hashes the last decoded frame.
func (v *Viewer) Checksum() uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return crc32.ChecksumIEEE(v.pix)
}

// Frames returns the number of tile updates decoded.
func (v *Viewer) Frames() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.frames
}

// FrameSeq returns the sequence number of the last decoded update.
func (v *Viewer) FrameSeq() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.frameSeq
}

// RxBytes returns the payload bytes received.
func (v *Viewer) RxBytes() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rxBytes
}

// Err returns the terminal read error, if any.
func (v *Viewer) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.readErr
}

// Close leaves the session.
func (v *Viewer) Close() error {
	err := v.cc.Close()
	v.wg.Wait()
	return err
}
