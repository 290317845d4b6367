package vnc

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/render"
	"repro/internal/wire"
)

// startShared stands up a server with n attached viewers over loopback TCP.
func startShared(t *testing.T, w, h, n int) (*Server, []*Client) {
	t.Helper()
	srv := NewServer(w, h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })

	clients := make([]*Client, n)
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
	}
	// Initial full frames.
	for _, c := range clients {
		waitFrames(t, c, 1)
	}
	return srv, clients
}

func waitFrames(t *testing.T, c *Client, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Frames() < n {
		if time.Now().After(deadline) {
			t.Fatalf("viewer stuck at %d frames, want %d", c.Frames(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// testFrame renders a deterministic scene into raw RGBA bytes.
func testFrame(tint uint8) []byte {
	fb := render.NewFramebuffer(96, 64)
	fb.Clear(render.Color{R: tint, G: 20, B: 40, A: 255})
	for i := 0; i < 30; i++ {
		fb.Set(10+i, 20, render.White)
	}
	return fb.Pix
}

func TestInitialFrameMatches(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 1)
	if _, err := srv.Update(testFrame(100)); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, clients[0], 2)
	if !bytes.Equal(clients[0].Framebuffer(), testFrame(100)) {
		t.Fatal("viewer framebuffer diverged")
	}
}

func TestDirtyTilesOnly(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 1)
	frame := testFrame(100)
	srv.Update(frame)
	waitFrames(t, clients[0], 2)
	before := srv.Stats().BytesSent

	// Single-pixel change: exactly one dirty tile.
	frame2 := append([]byte(nil), frame...)
	frame2[0] = 255
	dirty, err := srv.Update(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 {
		t.Fatalf("dirty tiles = %d, want 1", dirty)
	}
	waitFrames(t, clients[0], 3)
	delta := srv.Stats().BytesSent - before
	full := uint64(96 * 64 * 4)
	if delta >= full/4 {
		t.Fatalf("single-pixel update cost %d bytes (full frame %d): diffing broken", delta, full)
	}
	if !bytes.Equal(clients[0].Framebuffer(), frame2) {
		t.Fatal("viewer missed the pixel change")
	}
}

func TestNoChangeNoTiles(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 1)
	frame := testFrame(42)
	srv.Update(frame)
	waitFrames(t, clients[0], 2)
	dirty, _ := srv.Update(frame)
	if dirty != 0 {
		t.Fatalf("identical frame marked %d tiles dirty", dirty)
	}
}

func TestMultipleViewersConverge(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 3)
	srv.Update(testFrame(7))
	for _, c := range clients {
		waitFrames(t, c, 2)
	}
	want := clients[0].Checksum()
	for i, c := range clients[1:] {
		if c.Checksum() != want {
			t.Fatalf("viewer %d checksum mismatch", i+1)
		}
	}
}

func TestLateJoinerGetsFullFrame(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 1)
	srv.Update(testFrame(200))
	waitFrames(t, clients[0], 2)

	// New viewer attaches after updates happened.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	late, err := Attach(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	waitFrames(t, late, 1)
	if late.Checksum() != clients[0].Checksum() {
		t.Fatal("late joiner sees different content")
	}
}

func TestInputEventsReachApplication(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 1)
	events := make(chan Event, 8)
	srv.SetInputHandler(func(e Event) { events <- e })

	if err := clients[0].SendPointer(12, 34, 1); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].SendKey(0x20, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Event{
		{Kind: EventPointer, A: 12, B: 34, C: 1},
		{Kind: EventKey, A: 0x20, C: 1},
	} {
		select {
		case got := <-events:
			if got != want {
				t.Fatalf("event = %+v, want %+v", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("input event lost")
		}
	}
}

func TestViewerDisconnectSurvived(t *testing.T) {
	srv, clients := startShared(t, 96, 64, 2)
	clients[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.ViewerCount() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("dead viewer never detached")
		}
		srv.Update(testFrame(byte(time.Now().UnixNano())))
		time.Sleep(5 * time.Millisecond)
	}
	before := clients[1].Frames()
	srv.Update(testFrame(99))
	waitFrames(t, clients[1], before+1)
}

func TestBadFramebufferSize(t *testing.T) {
	srv := NewServer(32, 32)
	if _, err := srv.Update(make([]byte, 10)); err == nil {
		t.Fatal("wrong-size framebuffer accepted")
	}
}

func TestBandwidthScalesWithChange(t *testing.T) {
	// The E12 precondition: vnc bytes grow with changed screen area.
	srv, clients := startShared(t, 128, 128, 1)
	base := make([]byte, 128*128*4)
	srv.Update(base)
	waitFrames(t, clients[0], 2)

	cost := func(area int) uint64 {
		before := srv.Stats().BytesSent
		frame := append([]byte(nil), base...)
		for y := 0; y < area; y++ {
			for x := 0; x < area; x++ {
				i := (y*128 + x) * 4
				frame[i] = byte(x * y)
				frame[i+1] = byte(x + y)
			}
		}
		srv.Update(frame)
		srv.Update(base) // restore
		return srv.Stats().BytesSent - before
	}
	small := cost(16)
	large := cost(96)
	if large < 4*small {
		t.Fatalf("bandwidth not scaling with change: small=%d large=%d", small, large)
	}
}

// Property: tile extract/apply round trips for arbitrary geometry.
func TestQuickTileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		w, h := 40+int(seed%17), 30+int(seed%11)
		if w < 1 || h < 1 {
			return true
		}
		pix := make([]byte, w*h*4)
		s := seed
		for i := range pix {
			s = s*6364136223846793005 + 1442695040888963407
			pix[i] = byte(s >> 56)
		}
		out := make([]byte, w*h*4)
		tilesX := (w + TileSize - 1) / TileSize
		tilesY := (h + TileSize - 1) / TileSize
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				x, y, tw, th := tileRect(tx, ty, w, h)
				raw := extractTile(nil, pix, w, x, y, tw, th)
				enc, data := compressTile(raw)
				dec, err := decompressTile(enc, data, tw*th*4)
				if err != nil {
					return false
				}
				if err := applyTile(out, w, x, y, tw, th, dec); err != nil {
					return false
				}
			}
		}
		return bytes.Equal(pix, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAttachRejectsHostileInit: the init frame's geometry sizes the
// bespoke client's framebuffer, so Attach refuses a non-positive or
// oversized one with an error instead of panicking or allocating it.
func TestAttachRejectsHostileInit(t *testing.T) {
	for _, dims := range [][]int64{{-1, 64}, {64, 0}, {0, 0}, {4097, 4096}, {1 << 40, 1 << 40}, {-1 << 62, -4}} {
		srv, cli := net.Pipe()
		go func() {
			wire.NewEncoder(srv).Int64s(tagInit, dims)
			srv.Close()
		}()
		c, err := Attach(cli)
		if err == nil {
			c.Close()
			t.Fatalf("init %v accepted", dims)
		}
	}
	srv, cli := net.Pipe()
	go wire.NewEncoder(srv).Int64s(tagInit, []int64{64, 48})
	c, err := Attach(cli)
	if err != nil {
		t.Fatalf("64x48 init refused: %v", err)
	}
	if w, h := c.Size(); w != 64 || h != 48 {
		t.Fatalf("size %dx%d", w, h)
	}
	c.Close()
	srv.Close()
}
