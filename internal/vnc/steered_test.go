package vnc

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/pixel"
)

// startHubDesktop stands up a hub-hosted desktop publisher with n viewers
// attached through the hub's shared listener.
func startHubDesktop(t *testing.T, w, h, n int) (*Publisher, []*Viewer, string) {
	t.Helper()
	hb := hub.New(hub.Config{})
	t.Cleanup(hb.Close)
	session, err := hb.CreateSession(core.SessionConfig{Name: "desktop", AppName: "vnc"})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(session, w, h)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go hb.Serve(l)

	viewers := make([]*Viewer, n)
	for i := range viewers {
		viewers[i] = attachHubViewer(t, l.Addr().String())
	}
	return pub, viewers, l.Addr().String()
}

func attachHubViewer(t *testing.T, addr string) *Viewer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	v, err := AttachViewer(context.Background(), conn, core.AttachOptions{Session: "desktop"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func waitViewerFrames(t *testing.T, v *Viewer, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v.Frames() < n {
		if time.Now().After(deadline) {
			t.Fatalf("viewer stuck at %d updates, want %d", v.Frames(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHubDesktopConverges(t *testing.T) {
	pub, viewers, _ := startHubDesktop(t, 96, 64, 3)
	frame := testFrame(120)
	if _, err := pub.Update(frame); err != nil {
		t.Fatal(err)
	}
	for _, v := range viewers {
		waitViewerFrames(t, v, 1)
	}
	for i, v := range viewers {
		if !bytes.Equal(v.Framebuffer(), frame) {
			t.Fatalf("viewer %d framebuffer diverged", i)
		}
	}
	if pub.Stats().Keyframes == 0 {
		t.Fatal("first update was not a keyframe")
	}
}

func TestHubDesktopDirtyTilesOnly(t *testing.T) {
	pub, viewers, _ := startHubDesktop(t, 96, 64, 1)
	frame := testFrame(100)
	pub.Update(frame)
	waitViewerFrames(t, viewers[0], 1)
	before := pub.Stats().BytesSent

	// Single-pixel change: exactly one dirty tile in the published blob.
	frame2 := append([]byte(nil), frame...)
	frame2[0] = 255
	dirty, err := pub.Update(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 {
		t.Fatalf("dirty tiles = %d, want 1", dirty)
	}
	waitViewerFrames(t, viewers[0], 2)
	delta := pub.Stats().BytesSent - before
	full := uint64(96 * 64 * 4)
	if delta >= full/4 {
		t.Fatalf("single-pixel update cost %d bytes (full frame %d): diffing broken", delta, full)
	}
	if !bytes.Equal(viewers[0].Framebuffer(), frame2) {
		t.Fatal("viewer missed the pixel change")
	}
}

func TestHubDesktopLateJoinerRekeyed(t *testing.T) {
	pub, viewers, addr := startHubDesktop(t, 96, 64, 1)
	pub.Update(testFrame(200))
	waitViewerFrames(t, viewers[0], 1)

	// A viewer attaching mid-stream decodes nothing until audience growth
	// forces the next update out as a full-coverage keyframe.
	late := attachHubViewer(t, addr)
	frame := testFrame(201)
	if _, err := pub.Update(frame); err != nil {
		t.Fatal(err)
	}
	waitViewerFrames(t, late, 1)
	if !bytes.Equal(late.Framebuffer(), frame) {
		t.Fatal("late joiner sees different content")
	}
	waitViewerFrames(t, viewers[0], 2)
	if late.Checksum() != viewers[0].Checksum() {
		t.Fatal("viewers diverged after the re-key")
	}
}

func TestHubDesktopEmptyUpdateKeepsChain(t *testing.T) {
	pub, viewers, _ := startHubDesktop(t, 96, 64, 1)
	frame := testFrame(42)
	pub.Update(frame)
	waitViewerFrames(t, viewers[0], 1)

	// A clean update publishes an empty tile blob so viewer delta chains
	// stay unbroken; the next real change must still apply.
	if dirty, _ := pub.Update(frame); dirty != 0 {
		t.Fatal("identical frame marked tiles dirty")
	}
	waitViewerFrames(t, viewers[0], 2)
	frame2 := append([]byte(nil), frame...)
	frame2[0] = 255
	pub.Update(frame2)
	waitViewerFrames(t, viewers[0], 3)
	if !bytes.Equal(viewers[0].Framebuffer(), frame2) {
		t.Fatal("change after empty update lost")
	}
}

func TestHubDesktopBadFramebufferSize(t *testing.T) {
	hb := hub.New(hub.Config{})
	defer hb.Close()
	session, err := hb.CreateSession(core.SessionConfig{Name: "desktop", AppName: "vnc"})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(session, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Update(make([]byte, 10)); err == nil {
		t.Fatal("wrong-size framebuffer accepted")
	}
	if _, err := NewPublisher(session, 0, 32); err == nil {
		t.Fatal("zero width accepted")
	}
}

// TestViewerSurvivesHostileTiles: a tile blob is outside input. One that
// declares a 17 GB tile in a 17-byte record, or places a tile outside the
// framebuffer, is dropped — the viewer holds its last good frame and
// re-anchors on the next full update — instead of taking the process down.
func TestViewerSurvivesHostileTiles(t *testing.T) {
	const side = 32
	frame := func(data []byte, seq uint64, flags int64) *core.Blob {
		return &core.Blob{
			Stream: DesktopStream, Seq: seq, Encoding: pixel.EncTiles,
			Width: side, Height: side, Flags: flags, Data: data,
		}
	}
	tile := func(x, y int) []byte {
		buf, err := pixel.AppendTile(nil, pixel.Tile{X: x, Y: y, W: TileSize, H: TileSize, Pix: make([]byte, TileSize*TileSize*4)})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	huge := make([]byte, 17)
	huge[0] = 1 // flate
	copy(huge[9:13], []byte{0xFF, 0xFF, 0xFF, 0xFF})

	v := new(Viewer)
	v.apply(frame(tile(0, 0), 1, pixel.FlagKey))
	if v.Frames() != 1 {
		t.Fatal("good keyframe not applied")
	}
	for i, bad := range [][]byte{huge, tile(side, 0), tile(0, side-1), tile(1<<31, 1<<31)} {
		v.apply(frame(bad, uint64(2+i), pixel.FlagKey))
		if v.Frames() != 1 {
			t.Fatalf("hostile update %d counted as a decoded frame", i)
		}
	}
	v.apply(frame(tile(TileSize, TileSize), 6, 0))
	if v.Frames() != 1 {
		t.Fatal("partial update applied while unanchored")
	}
	v.apply(frame(tile(TileSize, TileSize), 7, pixel.FlagKey))
	if v.Frames() != 2 {
		t.Fatal("full update did not re-anchor the viewer")
	}
}

// TestViewerRejectsHostileGeometry: a tile blob's Width×Height come off the
// wire, and sized unchecked a negative one panics in make and a huge one
// exhausts memory. Such a blob is dropped before it sizes anything: the
// viewer keeps its last good frame and re-anchors on the next full update.
func TestViewerRejectsHostileGeometry(t *testing.T) {
	const side = 32
	blob := func(w, h int, seq uint64, flags int64) *core.Blob {
		data, err := pixel.AppendTile(nil, pixel.Tile{W: TileSize, H: TileSize, Pix: make([]byte, TileSize*TileSize*4)})
		if err != nil {
			t.Fatal(err)
		}
		return &core.Blob{
			Stream: DesktopStream, Seq: seq, Encoding: pixel.EncTiles,
			Width: w, Height: h, Flags: flags, Data: data,
		}
	}
	v := new(Viewer)
	v.apply(blob(side, side, 1, pixel.FlagKey))
	if v.Frames() != 1 {
		t.Fatal("good keyframe not applied")
	}
	good := v.Checksum()
	hostile := [][2]int{{-1, side}, {side, -16}, {0, 0}, {0, side}, {1 << 31, 1 << 31}, {4097, 4096}, {1 << 62, 4}}
	for i, g := range hostile {
		v.apply(blob(g[0], g[1], uint64(2+i), pixel.FlagKey))
		if v.Frames() != 1 || v.Checksum() != good {
			t.Fatalf("hostile geometry %dx%d applied", g[0], g[1])
		}
	}
	next := uint64(2 + len(hostile))
	v.apply(blob(side, side, next, 0))
	if v.Frames() != 1 {
		t.Fatal("partial update applied after a dropped blob, without a re-anchor")
	}
	v.apply(blob(side, side, next+1, pixel.FlagKey))
	if v.Frames() != 2 {
		t.Fatal("full update did not re-anchor the viewer")
	}
}
