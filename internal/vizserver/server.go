// Package vizserver reimplements the remote-rendering model the paper uses
// SGI OpenGL VizServer for: "the datasets which are being rendered as
// isosurfaces are too large to be visualized on a laptop client. VizServer
// allows the output of the graphics pipes from an Onyx visual supercomputer
// to be accessed remotely. In addition this greatly reduces network traffic
// since only compressed bitmaps need to be sent to the participating sites"
// (section 2.4).
//
// A Server owns the scene (too large to ship) and a software renderer; any
// number of participants attach to one shared steering session. The session
// engine supplies everything the old bespoke protocol hand-rolled: floor
// control arbitrates the single camera holder (VizServer's collaborative
// "multiple users share the same login session" mode), the view state carries
// the shared camera, and every rendered frame is broadcast once as a bulk
// blob on the "pixels" stream — encoded one time, fanned out to every
// subscriber over the refcounted FrameBuf/writev path — as a flate-compressed
// keyframe or XOR-delta bitmap (the codecs live in package pixel).
package vizserver

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pixel"
	"repro/internal/render"
)

// PixelStream is the blob stream name rendered frames are published on;
// participants subscribe to it at attach.
const PixelStream = "pixels"

// SceneProvider supplies the current scene at render time; the simulation
// side updates it between frames.
type SceneProvider func() *render.Scene

// Config configures a render service.
type Config struct {
	// Width, Height are the remote viewport dimensions.
	Width, Height int
	// Scene supplies the geometry; required.
	Scene SceneProvider
	// Camera is the initial session camera.
	Camera render.Camera
	// Session, when non-nil, hosts the render service on an existing
	// steering session (e.g. one created by a hub, sharing it with a
	// simulation). Nil creates a private session owned by the server.
	Session *core.Session
	// KeyInterval forces a keyframe at least every N frames; 0 keeps the
	// pixel.Rekeyer default.
	KeyInterval int
}

// Server is the remote rendering service.
type Server struct {
	cfg     Config
	session *core.Session
	st      *core.Steered
	own     bool // the server created (and must close) the session

	renderMu sync.Mutex // serialises render+publish so blob seqs stay ordered
	// Reused across frames under renderMu (EmitBlob copies the payload into
	// its frame): the frame before prevPix, and the encoded payload.
	sparePix, encBuf []byte

	mu      sync.Mutex
	cam     render.Camera
	fb      *render.Framebuffer
	prevPix []byte // last rendered frame, delta base
	rekey   pixel.Rekeyer
	lastSeq uint64
	stats   Stats
	closed  bool

	refresh   chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Stats counts rendering and transport activity.
type Stats struct {
	FramesRendered uint64
	BytesSent      uint64
	RawBytes       uint64 // what uncompressed transport would have cost
	CamMoves       uint64
	ControlDenied  uint64
}

// NewServer creates a render service and starts its steering watcher.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("vizserver: bad viewport %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Scene == nil {
		return nil, fmt.Errorf("vizserver: nil scene provider")
	}
	session := cfg.Session
	own := false
	if session == nil {
		session = core.NewSession(core.SessionConfig{Name: "vizserver", AppName: "vizserver"})
		own = true
	}
	s := &Server{
		cfg:     cfg,
		session: session,
		st:      session.Steered(),
		own:     own,
		cam:     cfg.Camera,
		fb:      render.NewFramebuffer(cfg.Width, cfg.Height),
		rekey:   pixel.Rekeyer{Interval: uint64(cfg.KeyInterval)},
		refresh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// "refresh" is how a controlling participant asks for a re-render after
	// the scene advanced; the value is a client-side counter and carries no
	// meaning beyond forcing a change.
	if err := s.st.RegisterInt("refresh", 0, 0, 1<<31,
		"re-render request counter (scene advanced)", func(int64) {
			select {
			case s.refresh <- struct{}{}:
			default:
			}
		}); err != nil {
		if own {
			session.Close()
		}
		return nil, err
	}
	s.wg.Add(1)
	go s.watch()
	return s, nil
}

// Session exposes the steering session the server renders for, so callers
// hosting the server on a hub can wire additional services to it.
func (s *Server) Session() *core.Session { return s.session }

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	// Camera moves by non-controllers are rejected by the session's floor
	// check; surface them as control denials.
	st.ControlDenied = s.session.Stats().SteersRejected
	return st
}

// Camera returns the current session camera.
func (s *Server) Camera() render.Camera {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cam
}

// Serve accepts participants from a listener.
func (s *Server) Serve(l net.Listener) error { return s.session.Serve(l) }

// ServeConn attaches one participant and runs its read loop.
func (s *Server) ServeConn(conn net.Conn) error { return s.session.ServeConn(conn) }

// watch is the render pump: it applies queued steering (the refresh counter),
// follows the session's shared view, and re-renders on a view change, an
// audience change (a late joiner needs a keyframe) or an explicit refresh.
func (s *Server) watch() {
	defer s.wg.Done()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var lastView uint64
	lastCount := 0
	for {
		select {
		case <-s.done:
			return
		case <-s.session.Done():
			return
		case <-t.C:
		}
		s.st.Poll()
		need := false
		select {
		case <-s.refresh:
			need = true
		default:
		}
		if v := s.session.View(); v.Seq != lastView {
			lastView = v.Seq
			s.applyView(v)
			need = true
		}
		n := s.session.ClientCount()
		if n > lastCount {
			need = true
		}
		lastCount = n
		if need && n > 0 {
			s.RenderBroadcast()
		}
	}
}

// applyView adopts the session's shared view as the render camera, keeping
// the server-side clip planes (clients steer the viewpoint, not the frustum).
func (s *Server) applyView(v core.ViewState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	near, far := s.cam.Near, s.cam.Far
	if near == 0 {
		near, far = 0.1, 100
	}
	s.cam = render.Camera{
		Eye:    render.Vec3{X: v.Eye[0], Y: v.Eye[1], Z: v.Eye[2]},
		Center: render.Vec3{X: v.Center[0], Y: v.Center[1], Z: v.Center[2]},
		Up:     render.Vec3{X: v.Up[0], Y: v.Up[1], Z: v.Up[2]},
		FovY:   v.FovY,
		Near:   near, Far: far,
	}
	s.stats.CamMoves++
}

// RenderBroadcast renders the scene from the session camera and publishes
// the frame to every subscribed participant: a keyframe when the audience
// grew or the rekey cadence came due, an XOR-delta otherwise. It returns the
// rendered framebuffer's checksum.
func (s *Server) RenderBroadcast() uint32 {
	s.renderMu.Lock()
	defer s.renderMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	cam := s.cam
	scene := s.cfg.Scene()
	s.mu.Unlock()

	// Render outside the lock: it is the expensive part.
	render.Render(s.fb, cam, scene)
	pix := append(s.sparePix[:0], s.fb.Pix...)
	sum := s.fb.Checksum()

	viewers := s.session.ClientCount()
	s.mu.Lock()
	prev := s.prevPix
	s.prevPix = pix
	seq, key := s.rekey.Next(viewers)
	s.lastSeq = seq
	s.stats.FramesRendered++
	s.mu.Unlock()

	enc, data := pixel.EncKey, []byte(nil)
	if !key && prev != nil {
		if d, err := pixel.AppendDelta(s.encBuf[:0], prev, pix); err == nil {
			enc, data = pixel.EncDelta, d
		}
	}
	if enc == pixel.EncKey {
		data = pixel.AppendKey(s.encBuf[:0], pix)
	}
	s.st.EmitBlob(&core.Blob{
		Stream: PixelStream, Seq: seq, Encoding: enc,
		Width: s.cfg.Width, Height: s.cfg.Height, Data: data,
	})
	s.sparePix, s.encBuf = prev, data

	s.mu.Lock()
	s.stats.BytesSent += uint64(len(data)) * uint64(viewers)
	s.stats.RawBytes += uint64(len(pix)) * uint64(viewers)
	s.mu.Unlock()
	return sum
}

// FrameSeq returns the sequence number of the most recently published frame.
func (s *Server) FrameSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// ClientCount reports attached participants.
func (s *Server) ClientCount() int { return s.session.ClientCount() }

// Close stops the render pump and, if the server owns its session, detaches
// everyone.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.done) })
	if s.own {
		s.session.Close()
	}
	s.wg.Wait()
}
