package vnc

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/wire"
)

// Server shares one framebuffer with any number of viewers.
type Server struct {
	w, h int

	mu       sync.Mutex
	current  []byte // last published framebuffer (RGBA)
	frameSeq int32
	viewers  map[*viewer]struct{}
	onInput  func(Event)
	stats    ServerStats
	closed   bool
}

// ServerStats counts protocol activity; the bandwidth experiments read
// BytesSent.
type ServerStats struct {
	Updates     uint64
	TilesSent   uint64
	BytesSent   uint64
	Viewers     uint64
	InputEvents uint64
}

// inputElems is the element count of the one frame a viewer sends, a
// tagInput [kind, a, b, c]; the viewer decoder refuses anything larger
// before reading it.
const inputElems = 4

// viewer is one attached client connection.
type viewer struct {
	conn net.Conn
	enc  *wire.Encoder
	emu  sync.Mutex
}

// NewServer creates a server for a w×h RGBA framebuffer, initially black.
func NewServer(w, h int) *Server {
	if w <= 0 || h <= 0 || w%1 != 0 {
		panic(fmt.Sprintf("vnc: bad framebuffer size %dx%d", w, h))
	}
	return &Server{
		w: w, h: h,
		current: make([]byte, w*h*4),
		viewers: make(map[*viewer]struct{}),
	}
}

// SetInputHandler installs the callback receiving viewer input events.
func (s *Server) SetInputHandler(fn func(Event)) {
	s.mu.Lock()
	s.onInput = fn
	s.mu.Unlock()
}

// Stats returns a copy of the counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Serve accepts viewers from a listener.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn attaches one viewer: sends the full current frame, then streams
// updates and consumes input events until the connection dies.
func (s *Server) ServeConn(conn net.Conn) error {
	v := &viewer{conn: conn, enc: wire.NewEncoder(conn)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return fmt.Errorf("vnc: server closed")
	}
	s.stats.Viewers++
	snapshot := append([]byte(nil), s.current...)
	seq := s.frameSeq
	s.viewers[v] = struct{}{}
	s.mu.Unlock()

	// Initial state: geometry + every tile of the current frame.
	if err := v.enc.Int32s(tagInit, []int32{int32(s.w), int32(s.h)}); err != nil {
		s.detach(v)
		return err
	}
	if err := s.sendFullFrame(v, snapshot, seq); err != nil {
		s.detach(v)
		return err
	}

	// Read loop: input events.
	dec := wire.NewDecoder(conn)
	dec.SetLimits(wire.Limits{MaxElements: inputElems, MaxBlobLen: 4 * inputElems, MaxPayload: 4 * inputElems})
	for {
		m, err := dec.Next()
		if err != nil {
			s.detach(v)
			return err
		}
		if m.Header.Tag != tagInput {
			continue
		}
		ints, err := m.AsInt64s()
		if err != nil || len(ints) != inputElems {
			continue
		}
		s.mu.Lock()
		fn := s.onInput
		s.stats.InputEvents++
		s.mu.Unlock()
		if fn != nil {
			fn(Event{Kind: EventKind(ints[0]), A: int32(ints[1]), B: int32(ints[2]), C: int32(ints[3])})
		}
	}
}

// sendFullFrame ships every tile of a frame to one viewer.
func (s *Server) sendFullFrame(v *viewer, pix []byte, seq int32) error {
	tilesX := (s.w + TileSize - 1) / TileSize
	tilesY := (s.h + TileSize - 1) / TileSize
	sent := int32(0)
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			if err := s.sendTile(v, pix, tx, ty, seq); err != nil {
				return err
			}
			sent++
		}
	}
	v.emu.Lock()
	defer v.emu.Unlock()
	return v.enc.Int32s(tagFrameEnd, []int32{seq, sent})
}

// sendTile encodes and ships one tile.
func (s *Server) sendTile(v *viewer, pix []byte, tx, ty int, seq int32) error {
	x, y, tw, th := tileRect(tx, ty, s.w, s.h)
	raw := extractTile(nil, pix, s.w, x, y, tw, th)
	enc, data := compressTile(raw)

	v.emu.Lock()
	defer v.emu.Unlock()
	if err := v.enc.Int32s(tagTileHdr, []int32{int32(x), int32(y), int32(tw), int32(th), enc, seq}); err != nil {
		return err
	}
	if err := v.enc.Bytes(tagTileData, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.TilesSent++
	s.stats.BytesSent += uint64(len(data)) + 16 + 24 + 16 + 4 // payload + headers
	s.mu.Unlock()
	return nil
}

// Update publishes a new framebuffer: dirty tiles are computed against the
// previous frame and broadcast to every viewer. It returns the number of
// dirty tiles. pix must be w*h*4 bytes.
func (s *Server) Update(pix []byte) (int, error) {
	if len(pix) != s.w*s.h*4 {
		return 0, fmt.Errorf("vnc: framebuffer %d bytes, want %d", len(pix), s.w*s.h*4)
	}
	s.mu.Lock()
	prev := s.current
	s.current = append([]byte(nil), pix...)
	s.frameSeq++
	seq := s.frameSeq
	s.stats.Updates++
	viewers := make([]*viewer, 0, len(s.viewers))
	for v := range s.viewers {
		viewers = append(viewers, v)
	}
	s.mu.Unlock()

	// Dirty-tile scan.
	tilesX := (s.w + TileSize - 1) / TileSize
	tilesY := (s.h + TileSize - 1) / TileSize
	type coord struct{ tx, ty int }
	var dirty []coord
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			x, y, tw, th := tileRect(tx, ty, s.w, s.h)
			if tileDirty(prev, pix, s.w, x, y, tw, th) {
				dirty = append(dirty, coord{tx, ty})
			}
		}
	}

	for _, v := range viewers {
		failed := false
		for _, d := range dirty {
			if err := s.sendTile(v, pix, d.tx, d.ty, seq); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			v.emu.Lock()
			err := v.enc.Int32s(tagFrameEnd, []int32{seq, int32(len(dirty))})
			v.emu.Unlock()
			failed = err != nil
		}
		if failed {
			s.detach(v)
		}
	}
	return len(dirty), nil
}

func (s *Server) detach(v *viewer) {
	s.mu.Lock()
	delete(s.viewers, v)
	s.mu.Unlock()
	v.conn.Close()
}

// ViewerCount reports attached viewers.
func (s *Server) ViewerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.viewers)
}

// Close detaches all viewers.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	viewers := make([]*viewer, 0, len(s.viewers))
	for v := range s.viewers {
		viewers = append(viewers, v)
	}
	s.viewers = make(map[*viewer]struct{})
	s.mu.Unlock()
	for _, v := range viewers {
		v.conn.Close()
	}
}
