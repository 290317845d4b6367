package vizserver

import (
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pixel"
	"repro/internal/render"
)

// Client is one participant in a shared remote-rendering session: the
// "laptop" of Figure 1, viewing isosurfaces it could never render itself.
// It is a viewer-shaped veneer over a core steering client: frames arrive as
// blobs on the "pixels" stream, the camera is the session's shared view, and
// control is the session's master floor.
type Client struct {
	cc *core.Client

	mu       sync.Mutex
	w, h     int
	pix      []byte
	spare    []byte // the frame before pix; the next one decodes into it
	anchor   pixel.Anchor
	frameSeq uint64
	frames   uint64
	rxBytes  uint64
	readErr  error

	frameCh  chan uint64
	refreshN atomic.Int64
	wg       sync.WaitGroup
}

// Attach joins the endpoint's default session over an established
// connection.
func Attach(conn net.Conn) (*Client, error) {
	return AttachContext(context.Background(), conn, core.AttachOptions{})
}

// AttachContext joins a session with full control over the attach options
// (session name on a multi-session hub, client name, buffers). The viewer
// defaults are applied on top: a subscription to the pixel stream, a blob
// ring deep enough to ride out render bursts, and WantMaster — every
// participant is a control candidate, so the floor passes to a survivor when
// the controller disconnects.
func AttachContext(ctx context.Context, conn net.Conn, opts core.AttachOptions) (*Client, error) {
	opts.WantMaster = true
	if opts.BlobBuffer == 0 {
		opts.BlobBuffer = 8
	}
	opts.Subscriptions = append(opts.Subscriptions, core.ChannelSub(PixelStream))
	cc, err := core.AttachContext(ctx, conn, opts)
	if err != nil {
		return nil, err
	}
	c := &Client{cc: cc, frameCh: make(chan uint64, 64)}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// Core exposes the underlying steering client for anything beyond the viewer
// surface (events, parameters, floor introspection).
func (c *Client) Core() *core.Client { return c.cc }

func (c *Client) readLoop() {
	defer c.wg.Done()
	for {
		select {
		case b := <-c.cc.Blobs():
			c.apply(b)
		case <-c.cc.Done():
			c.mu.Lock()
			c.readErr = c.cc.Err()
			c.mu.Unlock()
			return
		}
	}
}

// apply decodes one pixel blob into the local framebuffer. Deltas only apply
// on an unbroken sequence; after a gap (ring eviction on a slow link) the
// viewer stays on its last good frame until the next keyframe re-anchors it.
// A blob declaring a geometry outside (0, pixel.MaxFramebufferBytes] is
// dropped the same way, before it sizes anything.
func (c *Client) apply(b *core.Blob) {
	if b.Stream != PixelStream {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	size, err := pixel.FramebufferBytes(int64(b.Width), int64(b.Height))
	if err != nil {
		c.anchor = pixel.Anchor{} // wait for a keyframe
		return
	}
	if !c.anchor.Accept(b.Seq, b.Encoding) {
		return
	}
	var next []byte
	switch b.Encoding {
	case pixel.EncKey:
		next, err = pixel.DecodeKeyInto(c.spare, b.Data, size)
	case pixel.EncDelta:
		next, err = pixel.DecodeDeltaInto(c.spare, c.pix, b.Data, size)
	default:
		err = fmt.Errorf("vizserver: unknown frame encoding %d", b.Encoding)
	}
	if err != nil {
		c.anchor = pixel.Anchor{} // wait for a keyframe
		return
	}
	c.w, c.h = b.Width, b.Height
	c.pix, c.spare = next, c.pix
	c.frameSeq = b.Seq
	c.frames++
	c.rxBytes += uint64(len(b.Data))
	select {
	case c.frameCh <- b.Seq:
	default:
	}
}

// SetCamera moves the shared session camera. Only the controlling
// participant succeeds; the server re-renders and broadcasts to everyone.
func (c *Client) SetCamera(cam render.Camera, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := c.cc.SetViewContext(ctx, core.ViewState{
		Eye:    [3]float64{cam.Eye.X, cam.Eye.Y, cam.Eye.Z},
		Center: [3]float64{cam.Center.X, cam.Center.Y, cam.Center.Z},
		Up:     [3]float64{cam.Up.X, cam.Up.Y, cam.Up.Z},
		FovY:   cam.FovY,
	})
	if err != nil {
		return fmt.Errorf("vizserver: not in control of the session: %w", err)
	}
	return nil
}

// GrabControl claims the session camera (fails while another participant
// holds it).
func (c *Client) GrabControl(timeout time.Duration) error {
	if err := c.cc.TryRequestMaster(timeout); err != nil {
		return fmt.Errorf("vizserver: control held by another participant: %w", err)
	}
	return nil
}

// ReleaseControl gives up the session camera.
func (c *Client) ReleaseControl(timeout time.Duration) error {
	return c.cc.ReleaseMaster(timeout)
}

// Refresh asks the server to re-render (the scene advanced). Like every
// steer it requires control of the session.
func (c *Client) Refresh() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return c.cc.SetValueContext(ctx, "refresh", core.IntValue(c.refreshN.Add(1)))
}

// Framebuffer returns a copy of the last decoded frame.
func (c *Client) Framebuffer() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.pix...)
}

// Checksum hashes the last decoded frame.
func (c *Client) Checksum() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crc32.ChecksumIEEE(c.pix)
}

// FrameSeq returns the sequence number of the last decoded frame.
func (c *Client) FrameSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frameSeq
}

// Frames returns the number of frames decoded.
func (c *Client) Frames() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// RxBytes returns the compressed bytes received.
func (c *Client) RxBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rxBytes
}

// FrameUpdates exposes frame-arrival notifications.
func (c *Client) FrameUpdates() <-chan uint64 { return c.frameCh }

// Err returns the terminal read error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Close leaves the session.
func (c *Client) Close() error {
	err := c.cc.Close()
	c.wg.Wait()
	return err
}
