package pixel

import (
	"bytes"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	size := 64 * 64 * 4
	a := make([]byte, size)
	b := make([]byte, size)
	for i := range a {
		a[i] = byte(i * 7)
		b[i] = byte(i * 7)
	}
	b[100] = 0xFF // small change

	key := EncodeKey(a)
	back, err := DecodeKey(key, size)
	if err != nil || !bytes.Equal(back, a) {
		t.Fatalf("keyframe round trip failed: %v", err)
	}

	delta, err := EncodeDelta(a, b)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := DecodeDelta(a, delta, size)
	if err != nil || !bytes.Equal(back2, b) {
		t.Fatalf("delta round trip failed: %v", err)
	}
	// Small changes compress dramatically better than keyframes.
	if len(delta) >= len(key)/2 {
		t.Fatalf("delta %d bytes vs key %d: delta coding ineffective", len(delta), len(key))
	}
}

func TestCodecSizeMismatch(t *testing.T) {
	if _, err := EncodeDelta(make([]byte, 4), make([]byte, 8)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := DecodeKey(EncodeKey(make([]byte, 16)), 32); err == nil {
		t.Fatal("wrong decode size accepted")
	}
}

func TestTilesRoundTrip(t *testing.T) {
	// One compressible tile, one incompressible-looking tile.
	flat := make([]byte, 16*16*4)
	for i := range flat {
		flat[i] = 0x40
	}
	noisy := make([]byte, 8*8*4)
	for i := range noisy {
		noisy[i] = byte(i*131 + i>>3)
	}
	var buf []byte
	var err error
	if buf, err = AppendTile(buf, Tile{X: 0, Y: 0, W: 16, H: 16, Pix: flat}); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendTile(buf, Tile{X: 48, Y: 16, W: 8, H: 8, Pix: noisy}); err != nil {
		t.Fatal(err)
	}

	// Pix is lent for the callback only, so the comparison happens in it.
	want := []Tile{{X: 0, Y: 0, W: 16, H: 16, Pix: flat}, {X: 48, Y: 16, W: 8, H: 8, Pix: noisy}}
	got := 0
	if err := DecodeTiles(buf, func(tl Tile) error {
		if got < len(want) {
			w := want[got]
			if tl.X != w.X || tl.Y != w.Y || tl.W != w.W || tl.H != w.H || !bytes.Equal(tl.Pix, w.Pix) {
				t.Errorf("tile %d mismatch", got)
			}
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("decoded %d tiles, want %d", got, len(want))
	}
}

func TestTilesRejectTruncation(t *testing.T) {
	pix := make([]byte, 4*4*4)
	buf, err := AppendTile(nil, Tile{W: 4, H: 4, Pix: pix})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeTiles(buf[:len(buf)-1], func(Tile) error { return nil }); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := DecodeTiles(buf[:9], func(Tile) error { return nil }); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := AppendTile(nil, Tile{W: 4, H: 4, Pix: pix[:8]}); err == nil {
		t.Fatal("short tile payload accepted")
	}
}

func TestRekeyerPolicy(t *testing.T) {
	var r Rekeyer
	if seq, key := r.Next(1); seq != 1 || !key {
		t.Fatalf("first frame: seq %d key %v, want 1 true", seq, key)
	}
	if _, key := r.Next(1); key {
		t.Fatal("steady audience re-keyed immediately")
	}
	if _, key := r.Next(2); !key {
		t.Fatal("audience growth did not force a keyframe")
	}
	if _, key := r.Next(1); key {
		t.Fatal("audience shrink forced a keyframe")
	}
	// Cadence: with Interval n, at most n-1 deltas separate keyframes.
	r = Rekeyer{Interval: 4}
	keys := 0
	for i := 0; i < 12; i++ {
		if _, key := r.Next(1); key {
			keys++
		}
	}
	if keys != 3 {
		t.Fatalf("12 frames at interval 4 produced %d keyframes, want 3", keys)
	}
}

func TestAnchorContinuity(t *testing.T) {
	var a Anchor
	if a.Accept(5, EncDelta) {
		t.Fatal("delta accepted before any keyframe")
	}
	if !a.Accept(6, EncKey) {
		t.Fatal("keyframe rejected")
	}
	if !a.Accept(7, EncDelta) {
		t.Fatal("in-sequence delta rejected")
	}
	if a.Accept(9, EncDelta) {
		t.Fatal("gapped delta accepted")
	}
	if a.Accept(10, EncTiles) {
		t.Fatal("update accepted while unanchored")
	}
	if !a.Accept(20, EncKey) {
		t.Fatal("keyframe did not re-anchor after a gap")
	}
	if !a.Accept(21, EncTiles) {
		t.Fatal("in-sequence tile update rejected")
	}
}
