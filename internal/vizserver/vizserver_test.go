package vizserver

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/pixel"
	"repro/internal/render"
	"repro/internal/viz"
)

// testScene returns a provider for a sphere isosurface scene.
func testScene(n int) SceneProvider {
	f := viz.NewScalarField(n, n, n)
	c := float64(n-1) / 2
	f.Fill(func(i, j, k int) float64 {
		dx, dy, dz := float64(i)-c, float64(j)-c, float64(k)-c
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	})
	mesh := viz.Isosurface(f, float64(n)/3, render.Blue)
	scene := &render.Scene{Meshes: []*render.Mesh{mesh}}
	return func() *render.Scene { return scene }
}

func startSession(t *testing.T, nClients int) (*Server, []*Client) {
	t.Helper()
	cam := render.DefaultCamera()
	cam.Center = render.Vec3{X: 8, Y: 8, Z: 8}
	cam.Eye = render.Vec3{X: 30, Y: 25, Z: 35}
	srv, err := NewServer(Config{Width: 160, Height: 120, Scene: testScene(17), Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Attach(conn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
		waitFrames(t, c, 1)
	}
	return srv, clients
}

func waitFrames(t *testing.T, c *Client, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Frames() < n {
		if time.Now().After(deadline) {
			t.Fatalf("client stuck at %d frames, want %d", c.Frames(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCaughtUp waits until every client has decoded the server's latest
// published frame.
func waitCaughtUp(t *testing.T, srv *Server, clients ...*Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		want := srv.FrameSeq()
		caughtUp := want > 0
		for _, c := range clients {
			if c.FrameSeq() != want {
				caughtUp = false
			}
		}
		if caughtUp && want == srv.FrameSeq() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("participants never caught up to frame %d", srv.FrameSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFirstFrameDelivered(t *testing.T) {
	_, clients := startSession(t, 1)
	fb := clients[0].Framebuffer()
	painted := 0
	for i := 0; i < len(fb); i += 4 {
		if fb[i] != 0 || fb[i+1] != 0 || fb[i+2] != 0 {
			painted++
		}
	}
	if painted == 0 {
		t.Fatal("client frame is empty: isosurface not visible")
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	srv, clients := startSession(t, 1)
	cam := srv.Camera()
	for i := 0; i < 5; i++ {
		cam.Eye.X += 0.5
		if err := clients[0].SetCamera(cam, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		// One render per move: wait for the frame before the next steer.
		waitFrames(t, clients[0], uint64(i)+2)
	}
	waitCaughtUp(t, srv, clients[0])
	st := srv.Stats()
	if st.BytesSent >= st.RawBytes/2 {
		t.Fatalf("compressed %d vs raw %d: bandwidth claim fails", st.BytesSent, st.RawBytes)
	}
	if clients[0].RxBytes() == 0 {
		t.Fatal("client counted no received bytes")
	}
}

func TestAllParticipantsSeeSameFrame(t *testing.T) {
	srv, clients := startSession(t, 3)
	cam := srv.Camera()
	cam.Eye.Y += 2
	if err := clients[0].SetCamera(cam, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Attach-time broadcasts mean raw frame counts differ between clients;
	// wait until every participant has decoded the server's LATEST frame.
	waitCaughtUp(t, srv, clients...)
	want := clients[0].Checksum()
	for i, c := range clients[1:] {
		if c.Checksum() != want {
			t.Fatalf("participant %d sees different pixels", i+1)
		}
	}
}

func TestOnlyControllerMovesCamera(t *testing.T) {
	srv, clients := startSession(t, 2)
	cam := srv.Camera()
	cam.Eye.X += 1
	// Participant 1 (not controller) is denied.
	if err := clients[1].SetCamera(cam, 2*time.Second); err == nil {
		t.Fatal("non-controller moved the shared camera")
	}
	if srv.Stats().ControlDenied == 0 {
		t.Fatal("denial not counted")
	}
	// Controller succeeds.
	if err := clients[0].SetCamera(cam, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestControlHandoff(t *testing.T) {
	srv, clients := startSession(t, 2)
	if err := clients[1].GrabControl(2 * time.Second); err == nil {
		t.Fatal("control stolen while held")
	}
	if err := clients[0].ReleaseControl(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := clients[1].GrabControl(2 * time.Second); err != nil {
		t.Fatalf("grab after release failed: %v", err)
	}
	cam := srv.Camera()
	cam.Eye.Z += 3
	if err := clients[1].SetCamera(cam, 2*time.Second); err != nil {
		t.Fatalf("new controller denied: %v", err)
	}
	cam.Eye.Z += 1
	if err := clients[0].SetCamera(cam, 2*time.Second); err == nil {
		t.Fatal("old controller still steering the view")
	}
}

func TestControllerDisconnectPassesControl(t *testing.T) {
	srv, clients := startSession(t, 2)
	clients[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.ClientCount() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead controller never detached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cam := srv.Camera()
	cam.Eye.X -= 2
	deadline = time.Now().Add(2 * time.Second)
	for {
		// The floor promotion broadcast races the survivor's next steer;
		// retry until it lands.
		if err := clients[1].SetCamera(cam, 2*time.Second); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("surviving participant did not inherit control: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRefreshRendersSceneAdvance(t *testing.T) {
	// A mutable scene: the provider reflects simulation progress.
	var mu sync.Mutex
	color := render.Red
	scene := func() *render.Scene {
		mu.Lock()
		defer mu.Unlock()
		return &render.Scene{Meshes: []*render.Mesh{{
			Vertices:  []render.Vec3{{X: 0, Y: 0, Z: 0.5}, {X: 1, Y: 0, Z: 0.5}, {X: 0.5, Y: 1, Z: 0.5}},
			Triangles: [][3]int32{{0, 1, 2}},
			Color:     color,
		}}}
	}
	srv, err := NewServer(Config{Width: 64, Height: 64, Scene: scene, Camera: render.DefaultCamera()})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()

	conn, _ := net.Dial("tcp", l.Addr().String())
	c, err := Attach(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFrames(t, c, 1)
	before := c.Checksum()

	mu.Lock()
	color = render.Green
	mu.Unlock()
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, c, 2)
	if c.Checksum() == before {
		t.Fatal("refresh did not pick up scene change")
	}
}

// TestServerOnHubSession hosts the render service on a hub-owned session —
// the deployment shape cmd/steersim uses — and attaches a named viewer
// through the hub's shared listener.
func TestServerOnHubSession(t *testing.T) {
	h := hub.New(hub.Config{})
	defer h.Close()
	session, err := h.CreateSession(core.SessionConfig{Name: "viz-e2e", AppName: "vizserver"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Width: 96, Height: 64, Scene: testScene(9),
		Camera: render.DefaultCamera(), Session: session,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go h.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := AttachContext(context.Background(), conn, core.AttachOptions{
		Name: "laptop", Session: "viz-e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFrames(t, c, 1)

	cam := srv.Camera()
	cam.Eye.X += 1
	if err := c.SetCamera(cam, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, srv, c)
	if c.Checksum() == 0 {
		t.Fatal("hub-hosted viewer decoded no pixels")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{Width: 0, Height: 10, Scene: testScene(5)}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewServer(Config{Width: 10, Height: 10}); err == nil {
		t.Fatal("nil scene accepted")
	}
}

// TestClientRejectsHostileGeometry: a blob's declared geometry is checked
// against pixel.MaxFramebufferBytes before it sizes the decode. Dimensions
// whose RGBA product wraps to zero, zero or negative dimensions and
// oversized frames are all dropped without touching the framebuffer, and
// the viewer waits for a keyframe before applying deltas again.
func TestClientRejectsHostileGeometry(t *testing.T) {
	const side = 32
	keyframe := func(w, h int, seq uint64) *core.Blob {
		// The payload carries the byte count the geometry computes to in
		// int arithmetic, so a product that wraps to zero decodes cleanly.
		n := w * h * 4
		if n < 0 || n > 1<<20 {
			n = 0
		}
		return &core.Blob{
			Stream: PixelStream, Seq: seq, Encoding: pixel.EncKey,
			Width: w, Height: h, Data: pixel.EncodeKey(make([]byte, n)),
		}
	}
	c := new(Client)
	c.frameCh = make(chan uint64, 64)
	c.apply(keyframe(side, side, 1))
	if c.Frames() != 1 {
		t.Fatal("good keyframe not applied")
	}
	good := c.Checksum()
	hostile := [][2]int{{-1, side}, {side, -16}, {0, 0}, {0, side}, {1 << 31, 1 << 31}, {1 << 32, 1 << 32}, {4097, 4096}, {1 << 62, 4}}
	for i, g := range hostile {
		c.apply(keyframe(g[0], g[1], uint64(2+i)))
		if c.Frames() != 1 || c.Checksum() != good || c.w != side || c.h != side {
			t.Fatalf("hostile geometry %dx%d applied: frames %d, %dx%d", g[0], g[1], c.Frames(), c.w, c.h)
		}
	}
	next := uint64(2 + len(hostile))
	delta, err := pixel.EncodeDelta(make([]byte, side*side*4), make([]byte, side*side*4))
	if err != nil {
		t.Fatal(err)
	}
	c.apply(&core.Blob{Stream: PixelStream, Seq: next, Encoding: pixel.EncDelta, Width: side, Height: side, Data: delta})
	if c.Frames() != 1 {
		t.Fatal("delta applied after a dropped blob, without a re-anchor")
	}
	c.apply(keyframe(side, side, next+1))
	if c.Frames() != 2 {
		t.Fatal("keyframe did not re-anchor the viewer")
	}
}
