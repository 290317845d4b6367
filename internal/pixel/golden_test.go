package pixel

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites testdata/golden from the codec under test. The
// committed files were written by the per-tile flate.NewWriter codec at
// commit 3d0a6db — the last one before the codec kept state between tiles —
// and pin the wire bytes: regenerate them only for a deliberate format
// change, never to make this test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current codec")

// xorshift is the corpus generator: fixed here, not math/rand, so the corpus
// cannot drift with the standard library.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func flatPix(w, h int, v byte) []byte {
	return bytes.Repeat([]byte{v, v ^ 0x55, v + 3, 0xFF}, w*h)
}

func noisePix(w, h int, seed uint64) []byte {
	x := xorshift(seed)
	pix := make([]byte, w*h*4)
	for i := range pix {
		pix[i] = byte(x.next() >> 32)
	}
	return pix
}

func gradientPix(w, h int) []byte {
	pix := make([]byte, 0, w*h*4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pix = append(pix, byte(x*255/w), byte(y*255/h), byte(x+y), 0xFF)
		}
	}
	return pix
}

// goldenFrame is a 128×128 desktop of 64 16×16 tiles cycling through the
// three content kinds; goldenTiles cuts it back into its tiles.
const goldenSide, goldenTile = 128, 16

func goldenFrame(seed uint64) []byte {
	fb := make([]byte, goldenSide*goldenSide*4)
	per := goldenSide / goldenTile
	for t := 0; t < per*per; t++ {
		var pix []byte
		switch t % 3 {
		case 0:
			pix = flatPix(goldenTile, goldenTile, byte(seed)+byte(t))
		case 1:
			pix = noisePix(goldenTile, goldenTile, seed+uint64(t))
		default:
			pix = gradientPix(goldenTile, goldenTile)
		}
		x, y := (t%per)*goldenTile, (t/per)*goldenTile
		for r := 0; r < goldenTile; r++ {
			copy(fb[((y+r)*goldenSide+x)*4:], pix[r*goldenTile*4:(r+1)*goldenTile*4])
		}
	}
	return fb
}

func goldenTiles(fb []byte) []Tile {
	per := goldenSide / goldenTile
	tiles := make([]Tile, 0, per*per)
	for t := 0; t < per*per; t++ {
		x, y := (t%per)*goldenTile, (t/per)*goldenTile
		pix := make([]byte, 0, goldenTile*goldenTile*4)
		for r := 0; r < goldenTile; r++ {
			off := ((y+r)*goldenSide + x) * 4
			pix = append(pix, fb[off:off+goldenTile*4]...)
		}
		tiles = append(tiles, Tile{X: x, Y: y, W: goldenTile, H: goldenTile, Pix: pix})
	}
	return tiles
}

// goldenCase is one corpus entry: encode produces the bytes that must match
// testdata/golden/<name>.bin.
type goldenCase struct {
	name   string
	encode func(t *testing.T) []byte
}

func goldenCorpus() []goldenCase {
	tiles := func(ts ...Tile) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			var buf []byte
			for _, tl := range ts {
				buf = mustTile(t, buf, tl)
			}
			return buf
		}
	}
	key := func(pix []byte) func(*testing.T) []byte {
		return func(*testing.T) []byte { return EncodeKey(pix) }
	}
	delta := func(prev, cur []byte) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			d, err := EncodeDelta(prev, cur)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	flat, noise, grad := flatPix(64, 64, 0x40), noisePix(64, 64, 1), gradientPix(64, 64)
	one, odd := []byte{1, 2, 3, 4}, noisePix(13, 7, 2)
	frame := goldenFrame(7)
	touched := append([]byte(nil), flat...)
	touched[100] ^= 0xFF
	next := goldenFrame(7)
	copy(next[goldenSide*4*40:], noisePix(goldenSide, 3, 9)) // three dirty rows
	return []goldenCase{
		{"tile-flat", tiles(Tile{X: 0, Y: 0, W: 64, H: 64, Pix: flat})},
		{"tile-noise", tiles(Tile{X: 64, Y: 128, W: 64, H: 64, Pix: noise})},
		{"tile-gradient", tiles(Tile{X: 1 << 20, Y: 3, W: 64, H: 64, Pix: grad})},
		{"tile-1x1", tiles(Tile{X: 5, Y: 6, W: 1, H: 1, Pix: one})},
		{"tile-13x7", tiles(Tile{X: 13, Y: 7, W: 13, H: 7, Pix: odd})},
		{"tiles-keyframe", tiles(goldenTiles(frame)...)},
		{"key-flat", key(flat)},
		{"key-noise", key(noise)},
		{"key-gradient", key(grad)},
		{"key-1x1", key(one)},
		{"key-13x7", key(odd)},
		{"key-frame", key(frame)},
		{"delta-touched", delta(flat, touched)},
		{"delta-gradient-noise", delta(grad, noise)},
		{"delta-1x1", delta(one, []byte{1, 2, 3, 5})},
		{"delta-frame", delta(frame, next)},
	}
}

// TestGoldenWireBytes: every payload the codec produces is byte-identical
// to what the stateless codec produced for the same input. The corpus runs
// twice, the second time backwards, so each case is also encoded by pooled
// state warmed on a different predecessor.
func TestGoldenWireBytes(t *testing.T) {
	corpus := goldenCorpus()
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus {
			if err := os.WriteFile(filepath.Join(dir, c.name+".bin"), c.encode(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(c goldenCase) {
		want, err := os.ReadFile(filepath.Join(dir, c.name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.encode(t); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the golden %d", c.name, len(got), len(want))
		}
	}
	for _, c := range corpus {
		check(c)
	}
	for i := len(corpus) - 1; i >= 0; i-- {
		check(corpus[i])
	}
}
