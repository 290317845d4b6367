package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pixel"
	"repro/internal/sim/pepc"
)

// stampSlots sizes the emit-time table viewers consult for frame latency:
// one slot per step, reused after 65536 steps (about 3 s), far longer than
// any live delivery takes.
const stampSlots = 1 << 16

// app is the steered application: a loop of Steered.Poll and one PEPC step,
// with no sleeps or tickers. A ticker-paced application hides the engine
// behind Go's 1 ms timer floor (see README.md); this one polls at every
// step boundary, about every 45 µs, so steer→observe measures the code
// under test. It emits the diagnostics sample plus the echo channel every
// emitEvery steps, and on the step right after a steer applied.
type app struct {
	st   *core.Steered
	sim  *pepc.Sim
	wall *wall // nil unless the workload publishes pixels

	echo  float64 // last applied echo value; app goroutine only
	dirty bool    // a steer applied since the last emit

	steps   atomic.Int64 // completed steps, prefill included
	applied atomic.Int64 // last applied echo value, for joiners to check against
	stamps  []atomic.Int64

	tr   *appTrace // nil on the untraced pass
	done chan struct{}
}

func newApp(sess *core.Session, w workload, seed int64, tr *appTrace) (*app, error) {
	sim, err := pepc.New(pepc.Params{Theta: 0.5, Dt: 0.001, Workers: 1, Seed: simSeed})
	if err != nil {
		return nil, err
	}
	sim.AddPlasmaBall(simParticles, pepc.Vec{}, 1, 0.1)
	a := &app{
		st:     sess.Steered(),
		sim:    sim,
		stamps: make([]atomic.Int64, stampSlots),
		tr:     tr,
		done:   make(chan struct{}),
	}
	if w.wall {
		a.wall = newWall(seed, w.viewers)
	}
	err = a.st.RegisterFloat(echoParam, 0, 0, 1e18, "steerer's send time, echoed on the sample stream", func(v float64) {
		a.echo, a.dirty = v, true
		a.applied.Store(int64(v))
		if a.tr != nil {
			a.tr.applied(int64(v))
		}
	})
	return a, err
}

// prefill emits n samples back to back without stepping the simulation:
// the journal history late joiners replay.
func (a *app) prefill(n int) {
	for i := 0; i < n; i++ {
		a.emit(a.steps.Add(1))
	}
}

// run is the application loop; it ends when the session stops or closes.
func (a *app) run() {
	defer close(a.done)
	for {
		var t0, t1 int64
		if a.tr != nil {
			t0 = now()
		}
		ctl := a.st.Poll()
		if a.tr != nil {
			t1 = now()
			a.tr.polled(t0, t1)
		}
		if ctl == core.ControlStop {
			return
		}
		a.sim.Step()
		step := a.steps.Add(1)
		if a.tr != nil {
			a.tr.stepped(t1, now())
		}
		boundary := step%emitEvery == 0
		if a.dirty || boundary {
			a.emit(step)
		}
		if boundary && a.wall != nil && a.wall.credit() {
			a.publish()
		}
	}
}

func (a *app) emit(step int64) {
	s := core.NewSample(step)
	s.Channels["kinetic"] = core.Scalar(a.sim.KineticEnergy())
	s.Channels["particles"] = core.Scalar(float64(a.sim.N()))
	s.Channels["interactions"] = core.Scalar(float64(a.sim.Interactions()))
	s.Channels[echoChannel] = core.Scalar(a.echo)
	t0 := now()
	a.stamps[step%stampSlots].Store(t0)
	a.st.Emit(s)
	if a.tr != nil {
		a.tr.emitted(int64(a.echo), a.dirty, t0, now())
	}
	a.dirty = false
}

// publish renders, encodes and emits one pixel frame.
func (a *app) publish() {
	w := a.wall
	t0 := now()
	b := w.next()
	t1 := now()
	w.emitAt[b.Seq%uint64(len(w.emitAt))].Store(t1)
	w.emitted.Store(b.Seq)
	a.st.EmitBlob(b)
	if a.tr != nil {
		a.tr.framed(b.Seq, t0, t1, now())
	}
}

// emitStamp returns when the sample of the given step entered Emit.
func (a *app) emitStamp(step int64) int64 { return a.stamps[step%stampSlots].Load() }

// wall is the pixel producer inside the application loop. At a sample
// boundary it repaints wallDirty seeded tiles, encodes them with
// internal/pixel, stamps the framebuffer CRC32 into Blob.Flags and publishes
// on stream "wall". It is window-paced: a frame goes out only while the
// slowest viewer is fewer than wallWindow frames behind, so the run settles
// at the lossless rate by itself and a drop is a failure.
type wall struct {
	live  atomic.Bool // set once the steering warm-up is over
	fb    []byte
	rng   xorshift
	rk    pixel.Rekeyer
	order []int // tile indices, partially reshuffled each frame

	acked   []atomic.Uint64 // per viewer: sequence number of the last frame handled
	emitted atomic.Uint64
	emitAt  [64]atomic.Int64 // EmitBlob call time by seq%64; the window keeps slots live

	tile    []byte
	payload []byte
	rawOut  atomic.Uint64 // tile bytes before encoding
	encOut  atomic.Uint64 // payload bytes after
}

func newWall(seed int64, viewers int) *wall {
	w := &wall{
		fb:    make([]byte, wallSide*wallSide*4),
		rng:   xorshift(uint64(seed)*0x9E3779B97F4A7C15 | 1),
		order: make([]int, (wallSide/tileSide)*(wallSide/tileSide)),
		acked: make([]atomic.Uint64, viewers),
		tile:  make([]byte, tileSide*tileSide*4),
	}
	for i := range w.order {
		w.order[i] = i
	}
	return w
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// slowest is the newest frame every viewer has handled.
func (w *wall) slowest() uint64 {
	s := w.acked[0].Load()
	for i := 1; i < len(w.acked); i++ {
		s = min(s, w.acked[i].Load())
	}
	return s
}

func (w *wall) credit() bool {
	return w.live.Load() && w.emitted.Load()-w.slowest() < wallWindow
}

// draw repaints tile t: every other redraw is a flat colour, which flate
// shrinks to almost nothing, and the rest is noise, which travels raw — so
// both of the codec's tile encodings, and both decode paths, carry frames.
func (w *wall) draw(t int, flat bool) {
	per := wallSide / tileSide
	x0, y0 := (t%per)*tileSide*4, (t/per)*tileSide
	colour := w.rng.next()
	for y := y0; y < y0+tileSide; y++ {
		row := w.fb[y*wallSide*4+x0 : y*wallSide*4+x0+tileSide*4]
		for i := 0; i < len(row); i += 8 {
			v := colour
			if !flat {
				v = w.rng.next()
			}
			binary.LittleEndian.PutUint64(row[i:], v)
		}
	}
}

// next renders and encodes the next frame. The blob's Data is reused by
// the following call; EmitBlob copies it.
func (w *wall) next() *core.Blob {
	seq, key := w.rk.Next(len(w.acked))
	tiles := w.order
	if !key {
		// Partial Fisher–Yates: the first wallDirty entries become this
		// frame's distinct dirty tiles.
		for i := 0; i < wallDirty; i++ {
			j := i + int(w.rng.next()%uint64(len(w.order)-i))
			w.order[i], w.order[j] = w.order[j], w.order[i]
		}
		tiles = w.order[:wallDirty]
		for i, t := range tiles {
			w.draw(t, i%2 == 0)
		}
	}
	per := wallSide / tileSide
	w.payload = w.payload[:0]
	for _, t := range tiles {
		x, y := (t%per)*tileSide, (t/per)*tileSide
		for r := 0; r < tileSide; r++ {
			off := ((y+r)*wallSide + x) * 4
			copy(w.tile[r*tileSide*4:], w.fb[off:off+tileSide*4])
		}
		// AppendTile fails only on a size mismatch, which the fixed
		// geometry above rules out.
		w.payload, _ = pixel.AppendTile(w.payload, pixel.Tile{X: x, Y: y, W: tileSide, H: tileSide, Pix: w.tile})
	}
	flags := int64(crc32.ChecksumIEEE(w.fb)) << 8
	if key {
		flags |= pixel.FlagKey
	}
	w.rawOut.Add(uint64(len(tiles) * len(w.tile)))
	w.encOut.Add(uint64(len(w.payload)))
	return &core.Blob{
		Stream: wallStream, Seq: seq, Encoding: pixel.EncTiles,
		Width: wallSide, Height: wallSide, Flags: flags, Data: w.payload,
	}
}
