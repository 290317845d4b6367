package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The traced pass records timestamps around the public calls into each
// layer, from the benchmark's own goroutines, into buffers allocated before
// the measured window. After the run the records are joined into spans —
// one root per steer (id = steer sequence) and per pixel frame — and
// written under out/. The untraced pass takes none of these timestamps.

// steerRec is the application's view of one steer; echo (the steerer's
// send time) identifies it.
type steerRec struct {
	echo                        int64
	pollStart, applyAt, pollEnd int64
	stepEnd, emitStart, emitEnd int64
}

type frameRec struct {
	seq                          uint64
	encStart, emitStart, emitEnd int64
}

// seenRec is one observer's first sight of an echo value, or one viewer's
// handling of a pixel frame (recv → decoded).
type seenRec struct {
	id       int64 // echo value or frame seq
	at, done int64
}

// traceCap bounds each record buffer: 40 s of steers or pixel frames, twice
// run_seconds; more are not kept. Small on purpose — the buffers are live
// heap, and a larger live heap makes the collector run less often, which on
// the allocation-heavy pixels.wall makes the traced pass faster than the
// untraced one.
const traceCap = 1 << 13

// appTrace is written by the application goroutine only.
type appTrace struct {
	steers []steerRec
	frames []frameRec

	cur    steerRec // the steer being assembled
	poll   *series
	step   *series
	emit   *series
	encode *series
	on     func() bool // measured window open?
}

func newAppTrace(on func() bool) *appTrace {
	return &appTrace{
		steers: make([]steerRec, 0, traceCap),
		frames: make([]frameRec, 0, traceCap),
		poll:   newSeries(traceCap), step: newSeries(traceCap),
		emit: newSeries(traceCap), encode: newSeries(traceCap),
		on: on,
	}
}

// applied runs inside Poll, from the parameter's apply callback.
func (t *appTrace) applied(echo int64) {
	t.cur = steerRec{echo: echo, applyAt: now()}
}

func (t *appTrace) polled(t0, t1 int64) {
	if t.on() {
		t.poll.add(t1 - t0)
	}
	if t.cur.applyAt != 0 && t.cur.pollEnd == 0 {
		t.cur.pollStart, t.cur.pollEnd = t0, t1
	}
}

func (t *appTrace) stepped(t0, t1 int64) {
	if t.on() {
		t.step.add(t1 - t0)
	}
	if t.cur.pollEnd != 0 && t.cur.stepEnd == 0 {
		t.cur.stepEnd = t1
	}
}

func (t *appTrace) emitted(echo int64, steered bool, t0, t1 int64) {
	if t.on() {
		t.emit.add(t1 - t0)
	}
	if !steered || t.cur.echo != echo {
		return
	}
	t.cur.emitStart, t.cur.emitEnd = t0, t1
	if t.on() && len(t.steers) < cap(t.steers) {
		t.steers = append(t.steers, t.cur)
	}
	t.cur = steerRec{}
}

func (t *appTrace) framed(seq uint64, encStart, emitStart, emitEnd int64) {
	if !t.on() {
		return
	}
	t.encode.add(emitStart - encStart)
	t.emit.add(emitEnd - emitStart)
	if len(t.frames) < cap(t.frames) {
		t.frames = append(t.frames, frameRec{seq, encStart, emitStart, emitEnd})
	}
}

// span is one node of the written trace. Parent is an index into the same
// slice, -1 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// selfTimes fills Self: a span's duration minus the part of its interval
// that its children cover (overlapping children count once, and only
// inside the parent).
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// traceData is everything the traced pass gathered, handed over once every
// writer has stopped.
type traceData struct {
	app     *appTrace
	sent    []steerSent          // by the steerer, in sequence order
	seen    map[string][]seenRec // observer name → first sights of echo values
	tierOf  map[string]string    // observer name → "steering" | "observer"
	decoded map[string][]seenRec // wall viewer name → frames handled
}

type steerSent struct {
	seq       uint64
	echo, ack int64
}

// stageMeans are the mean durations of the consecutive stages a steer goes
// through, over the steers every stage was recorded for; on the inline
// path they add up to mean steer→observe.
type stageMeans struct {
	Steers        int     `json:"steers"`
	IngressApply  float64 `json:"core.ingress_apply_us"`
	PollTail      float64 `json:"core.poll_tail_us"`
	SimStep       float64 `json:"sim.step_us"`
	Emit          float64 `json:"core.emit_us"`
	Deliver       float64 `json:"core.deliver_us"`
	SteerObserve  float64 `json:"steer_observe_us"`
	StageSumShare float64 `json:"stage_sum_share"`
}

// build joins the records into spans and computes the per-steer stage
// means plus the deliver series by tier.
func (d *traceData) build() (spans []span, stages stageMeans, deliver map[string]*series, ingress *series) {
	deliver = map[string]*series{"steering": newSeries(traceCap), "observer": newSeries(traceCap)}
	ingress = newSeries(traceCap)
	appBy := make(map[int64]steerRec, len(d.app.steers))
	for _, r := range d.app.steers {
		appBy[r.echo] = r
	}
	seenBy := make(map[int64][]struct {
		who string
		at  int64
	})
	for who, recs := range d.seen {
		for _, r := range recs {
			seenBy[r.id] = append(seenBy[r.id], struct {
				who string
				at  int64
			}{who, r.at})
		}
	}
	var sum [6]float64
	for _, s := range d.sent {
		a, ok := appBy[s.echo]
		if !ok {
			continue
		}
		ingress.add(a.applyAt - s.echo)
		root := len(spans)
		end := max(s.ack, a.emitEnd)
		spans = append(spans,
			span{s.seq, "steer", -1, s.echo, end, 0},
			span{s.seq, "client.set_param", root, s.echo, s.ack, 0},
			span{s.seq, "core.ingress_apply", root, s.echo, a.applyAt, 0},
			span{s.seq, "core.poll", root, a.pollStart, a.pollEnd, 0},
			span{s.seq, "sim.step", root, a.pollEnd, a.stepEnd, 0},
			span{s.seq, "core.emit", root, a.emitStart, a.emitEnd, 0},
		)
		var obsSum float64
		sights := seenBy[s.echo]
		for _, o := range sights {
			from := min(a.emitEnd, o.at)
			spans = append(spans, span{s.seq, "core.deliver", root, from, o.at, 0})
			deliver[d.tierOf[o.who]].add(o.at - from)
			obsSum += float64(o.at - from)
			if o.at > spans[root].End {
				spans[root].End = o.at
			}
		}
		if len(sights) == 0 {
			continue
		}
		stages.Steers++
		sum[0] += float64(a.applyAt - s.echo)
		sum[1] += float64(a.pollEnd - a.applyAt)
		sum[2] += float64(a.emitStart - a.pollEnd)
		sum[3] += float64(a.emitEnd - a.emitStart)
		sum[4] += obsSum / float64(len(sights))
		var so float64
		for _, o := range sights {
			so += float64(o.at - s.echo)
		}
		sum[5] += so / float64(len(sights))
	}
	if n := float64(stages.Steers); n > 0 {
		stages.IngressApply = sum[0] / n / 1e3
		stages.PollTail = sum[1] / n / 1e3
		stages.SimStep = sum[2] / n / 1e3
		stages.Emit = sum[3] / n / 1e3
		stages.Deliver = sum[4] / n / 1e3
		stages.SteerObserve = sum[5] / n / 1e3
		if stages.SteerObserve > 0 {
			stages.StageSumShare = (stages.IngressApply + stages.PollTail + stages.SimStep + stages.Emit + stages.Deliver) / stages.SteerObserve
		}
	}

	frameBy := make(map[uint64]int, len(d.app.frames))
	for _, f := range d.app.frames {
		frameBy[f.seq] = len(spans)
		spans = append(spans,
			span{f.seq, "frame", -1, f.encStart, f.emitEnd, 0},
			span{f.seq, "pixel.encode", len(spans), f.encStart, f.emitStart, 0},
			span{f.seq, "core.emit", len(spans), f.emitStart, f.emitEnd, 0},
		)
	}
	for _, recs := range d.decoded {
		for _, r := range recs {
			root, ok := frameBy[uint64(r.id)]
			if !ok {
				continue
			}
			from := min(spans[root+2].End, r.at)
			spans = append(spans,
				span{uint64(r.id), "core.deliver", root, from, r.at, 0},
				span{uint64(r.id), "pixel.decode", root, r.at, r.done, 0},
			)
			if r.done > spans[root].End {
				spans[root].End = r.done
			}
		}
	}
	selfTimes(spans)
	return spans, stages, deliver, ingress
}

// writeTrace writes the spans as JSON lines under out/.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// spanTable prints mean duration and mean self time per span name.
func spanTable(spans []span) string {
	type agg struct {
		n         int
		dur, self int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	out := fmt.Sprintf("  %-22s %8s %12s %12s\n", "span", "n", "mean_us", "self_us")
	for _, n := range names {
		a := by[n]
		out += fmt.Sprintf("  %-22s %8d %12.2f %12.2f\n", n, a.n,
			float64(a.dur)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3)
	}
	return out
}
