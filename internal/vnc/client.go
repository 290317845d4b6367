package vnc

import (
	"fmt"
	"hash/crc32"
	"net"
	"sync"

	"repro/internal/wire"
)

// Client is one viewer of a shared framebuffer.
type Client struct {
	conn net.Conn
	enc  *wire.Encoder

	mu       sync.Mutex
	w, h     int
	pix      []byte
	frameSeq int32
	frames   uint64
	readErr  error

	frameCh chan int32
	once    sync.Once
	done    chan struct{}
}

// Attach starts a viewer on an established connection; it returns after the
// geometry frame has been received, with the tile stream consumed on a
// background goroutine.
func Attach(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:    conn,
		enc:     wire.NewEncoder(conn),
		frameCh: make(chan int32, 64),
		done:    make(chan struct{}),
	}
	dec := wire.NewDecoder(conn)
	init, err := dec.Expect(tagInit)
	if err != nil {
		conn.Close()
		return nil, err
	}
	dims, err := init.AsInt64s()
	if err != nil || len(dims) != 2 {
		conn.Close()
		return nil, fmt.Errorf("vnc: malformed init frame")
	}
	n, err := framebufferBytes(dims[0], dims[1])
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.w, c.h = int(dims[0]), int(dims[1])
	c.pix = make([]byte, n)

	go c.readLoop(dec)
	return c, nil
}

// readLoop applies tile updates.
func (c *Client) readLoop(dec *wire.Decoder) {
	var pendingHdr []int64
	for {
		m, err := dec.Next()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			c.Close()
			return
		}
		switch m.Header.Tag {
		case tagTileHdr:
			hdr, err := m.AsInt64s()
			if err == nil && len(hdr) == 6 {
				pendingHdr = hdr
			}
		case tagTileData:
			if pendingHdr == nil || len(m.Blobs) != 1 {
				continue
			}
			x, y := int(pendingHdr[0]), int(pendingHdr[1])
			tw, th := int(pendingHdr[2]), int(pendingHdr[3])
			if tw <= 0 || th <= 0 || tw > TileSize || th > TileSize {
				// The server never sends such a tile; a hostile size must
				// not size the decompression buffer.
				pendingHdr = nil
				continue
			}
			enc := int32(pendingHdr[4])
			data, err := decompressTile(enc, m.Blobs[0], tw*th*4)
			if err != nil {
				continue
			}
			c.mu.Lock()
			applyTile(c.pix, c.w, x, y, tw, th, data)
			c.mu.Unlock()
			pendingHdr = nil
		case tagFrameEnd:
			fe, err := m.AsInt64s()
			if err != nil || len(fe) != 2 {
				continue
			}
			c.mu.Lock()
			c.frameSeq = int32(fe[0])
			c.frames++
			c.mu.Unlock()
			select {
			case c.frameCh <- int32(fe[0]):
			default:
			}
		}
	}
}

// Size returns the framebuffer geometry.
func (c *Client) Size() (w, h int) { return c.w, c.h }

// Framebuffer returns a copy of the current local framebuffer.
func (c *Client) Framebuffer() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.pix...)
}

// Checksum hashes the current framebuffer; two viewers showing the same
// content agree.
func (c *Client) Checksum() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crc32.ChecksumIEEE(c.pix)
}

// FrameSeq returns the sequence number of the last completed frame.
func (c *Client) FrameSeq() int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frameSeq
}

// Frames returns the count of completed frames received.
func (c *Client) Frames() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// FrameUpdates exposes completion notifications (frame sequence numbers).
func (c *Client) FrameUpdates() <-chan int32 { return c.frameCh }

// SendPointer forwards a pointer event to the application side.
func (c *Client) SendPointer(x, y int, buttons int32) error {
	return c.enc.Int32s(tagInput, []int32{int32(EventPointer), int32(x), int32(y), buttons})
}

// SendKey forwards a key event.
func (c *Client) SendKey(keysym int32, down bool) error {
	d := int32(0)
	if down {
		d = 1
	}
	return c.enc.Int32s(tagInput, []int32{int32(EventKey), keysym, 0, d})
}

// Err returns the terminal read error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Close detaches the viewer.
func (c *Client) Close() error {
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
	return nil
}
