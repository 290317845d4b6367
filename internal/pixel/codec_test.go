package pixel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// tileRecord builds a tile record by hand, so a test can declare what no
// encoder would.
func tileRecord(enc uint8, w, h uint16, payload []byte) []byte {
	rec := make([]byte, tileHeaderLen, tileHeaderLen+len(payload))
	rec[0] = enc
	binary.BigEndian.PutUint16(rec[9:], w)
	binary.BigEndian.PutUint16(rec[11:], h)
	binary.BigEndian.PutUint32(rec[13:], uint32(len(payload)))
	return append(rec, payload...)
}

func mustTile(t testing.TB, buf []byte, tl Tile) []byte {
	t.Helper()
	buf, err := AppendTile(buf, tl)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestTilesRejectHostile: records that lie about their size are refused
// without sizing memory by the lie. The first case killed the process with
// an out-of-memory fault when the decoder trusted w*h*4.
func TestTilesRejectHostile(t *testing.T) {
	flat := mustTile(t, nil, Tile{W: 64, H: 64, Pix: flatPix(64, 64, 9)})
	stream := flat[tileHeaderLen:]
	cases := []struct {
		name string
		data []byte
	}{
		{"17-byte header declaring 17 GB, flate", tileRecord(tileFlate, 65535, 65535, nil)},
		{"17-byte header declaring 17 GB, raw", tileRecord(tileRaw, 65535, 65535, nil)},
		{"tile over MaxTileBytes", tileRecord(tileFlate, 1025, 1024, stream)},
		{"zero width", tileRecord(tileRaw, 0, 16, nil)},
		{"zero height", tileRecord(tileFlate, 16, 0, stream)},
		{"declared size past deflate's expansion", tileRecord(tileFlate, 1024, 1024, stream[:8])},
		{"stream inflates past the declared size", tileRecord(tileFlate, 32, 32, stream)},
		{"stream inflates short of the declared size", tileRecord(tileFlate, 65, 64, stream)},
		{"torn stream", tileRecord(tileFlate, 64, 64, stream[:len(stream)-3])},
		{"raw payload shorter than declared", tileRecord(tileRaw, 4, 4, make([]byte, 63))},
		{"unknown encoding", tileRecord(7, 1, 1, make([]byte, 4))},
		{"good tile then a torn header", append(append([]byte(nil), flat...), flat[:9]...)},
	}
	for _, c := range cases {
		d := decoders.Get().(*decoder)
		d.pix = nil
		err := d.tiles(c.data, func(Tile) error { return nil })
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if cap(d.pix) > maxExpansion*(len(c.data)+1) {
			t.Errorf("%s: %d-byte input grew the scratch to %d bytes", c.name, len(c.data), cap(d.pix))
		}
	}
	// The first excess byte fails the decode: the scratch stays at the
	// declared size.
	d := decoders.Get().(*decoder)
	d.pix = nil
	if err := d.tiles(tileRecord(tileFlate, 32, 32, stream), func(Tile) error { return nil }); err == nil || cap(d.pix) != 32*32*4 {
		t.Fatalf("over-long stream: err %v, scratch %d bytes, want an error and %d", err, cap(d.pix), 32*32*4)
	}
	if _, err := AppendTile(nil, Tile{W: 1025, H: 1024, Pix: make([]byte, 1025*1024*4)}); err == nil {
		t.Fatal("AppendTile encoded a tile DecodeTiles would refuse")
	}
	if _, err := AppendTile(nil, Tile{}); err == nil {
		t.Fatal("AppendTile encoded an empty tile")
	}
}

// TestFullFrameRejectHostile: the frame size comes off the wire too
// (Blob.Width × Blob.Height); a size the payload cannot inflate to must not
// be allocated.
func TestFullFrameRejectHostile(t *testing.T) {
	key := EncodeKey(flatPix(16, 16, 1))
	for _, size := range []int{-1, 1 << 40, 16*16*4 - 1, 16*16*4 + 1} {
		if _, err := DecodeKey(key, size); err == nil {
			t.Errorf("DecodeKey accepted size %d for a %d-byte frame", size, 16*16*4)
		}
		if _, err := DecodeDelta(make([]byte, 16*16*4), key, size); err == nil {
			t.Errorf("DecodeDelta accepted size %d for a %d-byte frame", size, 16*16*4)
		}
	}
	if _, err := DecodeKey(key[:len(key)-2], 16*16*4); err == nil {
		t.Error("torn keyframe accepted")
	}
	if _, err := DecodeDelta(make([]byte, 8), key, 16*16*4); err == nil {
		t.Error("delta accepted against a previous frame of the wrong size")
	}
}

// TestAppendFormsReuseBuffers: the append-style forms write behind what the
// caller already has and decode into the capacity they are given.
func TestAppendFormsReuseBuffers(t *testing.T) {
	prev, cur := gradientPix(32, 32), gradientPix(32, 32)
	cur[77] ^= 0xFF

	enc := AppendKey([]byte("hdr"), cur)
	if !bytes.HasPrefix(enc, []byte("hdr")) || !bytes.Equal(enc[3:], EncodeKey(cur)) {
		t.Fatal("AppendKey did not append EncodeKey's bytes behind the prefix")
	}
	dst := make([]byte, 0, len(cur))
	out, err := DecodeKeyInto(dst, enc[3:], len(cur))
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("DecodeKeyInto: %v", err)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("DecodeKeyInto reallocated a buffer that was large enough")
	}

	enc, err = AppendDelta(enc[:3], prev, cur)
	want, _ := EncodeDelta(prev, cur)
	if err != nil || !bytes.Equal(enc[3:], want) {
		t.Fatalf("AppendDelta did not append EncodeDelta's bytes behind the prefix: %v", err)
	}
	keep := append([]byte(nil), prev...)
	out, err = DecodeDeltaInto(dst, prev, enc[3:], len(cur))
	if err != nil || !bytes.Equal(out, cur) {
		t.Fatalf("DecodeDeltaInto: %v", err)
	}
	if !bytes.Equal(prev, keep) {
		t.Fatal("DecodeDeltaInto modified the previous frame")
	}
}

// TestTileCodecAllocFree: between two Polls the codec builds nothing — a
// tile appended to a buffer that has the room, and a payload decoded,
// allocate nothing, whichever encoding the tile takes.
func TestTileCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts; zero-alloc holds only without -race")
	}
	for _, c := range []struct {
		name string
		pix  []byte
		enc  uint8
	}{
		{"flat", flatPix(64, 64, 3), tileFlate},
		{"noise", noisePix(64, 64, 3), tileRaw},
	} {
		tl := Tile{X: 64, Y: 128, W: 64, H: 64, Pix: c.pix}
		buf := mustTile(t, nil, tl)
		if buf[0] != c.enc {
			t.Fatalf("%s tile took encoding %d, want %d", c.name, buf[0], c.enc)
		}
		buf = append(make([]byte, 0, 2*len(c.pix)), buf...)
		if n := testing.AllocsPerRun(200, func() {
			buf, _ = AppendTile(buf[:0], tl)
		}); n != 0 {
			t.Errorf("AppendTile(%s): %v allocs/op, want 0", c.name, n)
		}
		sum := 0
		if n := testing.AllocsPerRun(200, func() {
			_ = DecodeTiles(buf, func(t Tile) error {
				sum += int(t.Pix[0])
				return nil
			})
		}); n != 0 {
			t.Errorf("DecodeTiles(%s): %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestCodecConcurrent is the wall's shape, for the race detector: several
// viewers decode one shared payload while the producer keeps encoding. No
// decoder may see another's tile, and the shared payload is never written.
func TestCodecConcurrent(t *testing.T) {
	tiles := goldenTiles(goldenFrame(3))
	var payload []byte
	for _, tl := range tiles {
		payload = mustTile(t, payload, tl)
	}
	pristine := append([]byte(nil), payload...)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := 0
				err := DecodeTiles(payload, func(tl Tile) error {
					if k >= len(tiles) || !bytes.Equal(tl.Pix, tiles[k].Pix) {
						return errors.New("decoded another tile's pixels")
					}
					k++
					runtime.Gosched()
					return nil
				})
				if err != nil || k != len(tiles) {
					t.Errorf("decode: %d of %d tiles, %v", k, len(tiles), err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []byte
		for i := 0; i < 10; i++ {
			buf = buf[:0]
			for _, tl := range tiles {
				buf, _ = AppendTile(buf, tl) // cannot fail: the same tiles built payload
			}
			if !bytes.Equal(buf, pristine) {
				t.Error("concurrent encode produced different bytes")
				return
			}
		}
	}()
	wg.Wait()
	if !bytes.Equal(payload, pristine) {
		t.Fatal("decoding wrote to the shared payload")
	}
}

// FuzzDecodeTiles: arbitrary bytes never panic and never size the scratch
// past what the input could inflate to or MaxTileBytes; a tile cut from the
// same bytes round-trips exactly.
func FuzzDecodeTiles(f *testing.F) {
	f.Add([]byte(nil), uint8(1), uint8(1))
	f.Add(tileRecord(tileFlate, 65535, 65535, nil), uint8(16), uint8(16))
	f.Add(mustTile(f, nil, Tile{W: 16, H: 16, Pix: flatPix(16, 16, 1)}), uint8(13), uint8(7))
	f.Add(mustTile(f, nil, Tile{X: 3, W: 8, H: 8, Pix: noisePix(8, 8, 1)}), uint8(64), uint8(64))
	f.Add(tileRecord(tileFlate, 4, 4, []byte{0x00, 0x00, 0x00, 0xFF, 0xFF}), uint8(0), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, w, h uint8) {
		d := decoders.Get().(*decoder)
		d.pix = nil
		_ = d.tiles(data, func(tl Tile) error {
			if len(tl.Pix) != tl.W*tl.H*4 {
				t.Fatalf("tile %dx%d lent %d bytes", tl.W, tl.H, len(tl.Pix))
			}
			return nil
		})
		if cap(d.pix) > MaxTileBytes || cap(d.pix) > maxExpansion*(len(data)+1) {
			t.Fatalf("%d input bytes grew the scratch to %d", len(data), cap(d.pix))
		}
		decoders.Put(d)

		tw, th := int(w%64)+1, int(h%64)+1
		pix := make([]byte, tw*th*4)
		for i := 0; len(data) > 0 && i < len(pix); i += len(data) {
			copy(pix[i:], data)
		}
		buf := mustTile(t, nil, Tile{X: int(w), Y: int(h), W: tw, H: th, Pix: pix})
		n := 0
		if err := DecodeTiles(buf, func(tl Tile) error {
			n++
			if tl.X != int(w) || tl.Y != int(h) || tl.W != tw || tl.H != th || !bytes.Equal(tl.Pix, pix) {
				t.Fatal("round trip changed the tile")
			}
			return nil
		}); err != nil || n != 1 {
			t.Fatalf("round trip: %d tiles, %v", n, err)
		}
	})
}

var benchSink int

// BenchmarkTileCodec guards the codec's steady state: allocs/op stays 0 and
// a tile costs what deflating its pixels costs, not what building a
// deflater costs. frame is the wall's dirty update, 16 64×64 tiles, every
// other one noise.
func BenchmarkTileCodec(b *testing.B) {
	flat := Tile{W: 64, H: 64, Pix: flatPix(64, 64, 3)}
	noise := Tile{W: 64, H: 64, Pix: noisePix(64, 64, 3)}
	frame := make([]Tile, 16)
	for i := range frame {
		frame[i] = flat
		if i%2 == 1 {
			frame[i] = noise
		}
	}
	encode := func(tiles ...Tile) func(*testing.B) {
		return func(b *testing.B) {
			raw := 0
			for _, tl := range tiles {
				raw += len(tl.Pix)
			}
			buf := make([]byte, 0, 2*raw)
			b.SetBytes(int64(raw))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, tl := range tiles {
					buf, _ = AppendTile(buf, tl)
				}
			}
			benchSink += len(buf)
		}
	}
	b.Run("encode/flat", encode(flat))
	b.Run("encode/noise", encode(noise))
	b.Run("encode/frame", encode(frame...))
	b.Run("decode/frame", func(b *testing.B) {
		var buf []byte
		for _, tl := range frame {
			buf = mustTile(b, buf, tl)
		}
		b.SetBytes(int64(len(frame) * len(flat.Pix)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = DecodeTiles(buf, func(tl Tile) error {
				benchSink += int(tl.Pix[0])
				return nil
			})
		}
	})
}
