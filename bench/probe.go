package main

import (
	"bytes"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/wire"
)

// Isolated probes loop one layer's public API on the workload's frame
// shapes, outside the venue, after the measured window.

// probeWire round-trips a diagnostics-sample-sized message — a step
// number, four channel names, four values — through wire.Encoder and
// wire.Decoder.
func probeWire(layer map[string]float64) {
	const rounds = 20000
	names := []string{"kinetic", "particles", "interactions", echoChannel}
	vals := []float64{1, 2, 3, 4}
	var buf bytes.Buffer
	enc, dec := wire.NewEncoder(&buf), wire.NewDecoder(&buf)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	for i := 0; i < rounds; i++ {
		// Writes into a bytes.Buffer cannot fail; a decode error would
		// show as a zero below.
		enc.Int(1, int64(i))
		enc.Strings(2, names)
		enc.Float64s(3, vals)
		for k := 0; k < 3; k++ {
			if _, err := dec.Next(); err != nil {
				return
			}
		}
	}
	t1 := now()
	runtime.ReadMemStats(&m1)
	layer["wire.codec_ns_frame"] = float64(t1-t0) / rounds
	layer["wire.allocs_frame"] = float64(m1.Mallocs-m0.Mallocs) / rounds
}

// probeJournal feeds a standalone journal sample-sized frames: the cost of
// the tap (Record), of a maintenance sweep over a 1000-record batch
// (compactions included), and of replaying the mirror the way an attach
// does, copying every frame.
func probeJournal(outDir string, layer map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	snapshot := [][]byte{make([]byte, 200)}
	j.SetSnapshot(func() [][]byte { return snapshot })
	// A syncer that never sweeps on its own takes the maintenance off the
	// Record path, as the hub's does; the probe calls Maintain itself.
	sy := journal.NewSyncer(time.Hour)
	sy.Watch(j)

	const batches, batch = 10, 1000
	frame := make([]byte, 160)
	var record, maintain int64
	for b := 0; b < batches; b++ {
		t0 := now()
		for i := 0; i < batch; i++ {
			fb := core.NewFrame(frame)
			j.Record(core.JournalSample, fb)
			fb.Release()
		}
		t1 := now()
		j.Maintain()
		record += t1 - t0
		maintain += now() - t1
	}
	var replayed, bytesOut int
	t0 := now()
	for r := 0; r < 20; r++ {
		j.Replay(func(_ core.JournalClass, f []byte) bool {
			bytesOut += len(append([]byte(nil), f...))
			replayed++
			return true
		})
	}
	replay := now() - t0
	st := j.Stats()
	sy.Close()
	if err := j.Close(); err != nil {
		return err
	}
	layer["journal.record_ns"] = float64(record) / (batches * batch)
	layer["journal.maintain_ms"] = float64(maintain) / batches / 1e6
	layer["journal.replay_us_krec"] = ratio(float64(replay)/1e3, float64(replayed)/1e3)
	layer["journal.appends"] = float64(st.Appends)
	layer["journal.compactions"] = float64(st.Compactions)
	layer["journal.mirror_bytes"] = float64(st.MirrorBytes)
	layer["journal.write_errors"] = float64(st.WriteErrs)
	return nil
}
