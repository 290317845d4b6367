package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// box describes where a result was taken; results from differing boxes are
// not comparable.
type box struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	OutFS      string `json:"out_fs"` // filesystem type under out/, where the journal lives
}

// result is everything one run reports. Metrics holds the contract's
// metrics — every end-to-end metric on the untraced pass, every per-layer
// metric on the traced pass — and the rest is diagnostics.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Box      box     `json:"box"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`

	Metrics map[string]value `json:"metrics"`

	// Timings carries, for every timing, the median, the highest
	// percentile with at least ten samples beyond it, and the count. The
	// tails are diagnostics: they do not repeat within a tenth on a shared
	// box.
	Timings        map[string]summary `json:"timings"`
	GeneratorLagMs summary            `json:"generator_lag_ms"`
	// Unresolved is set when the steerer ran late (lag p50 above 1 ms):
	// the latency metrics then describe the generator, not the engine.
	Unresolved bool `json:"unresolved"`
	// RSSPeakMB is VmHWM over the whole process, set-up rounds included. A
	// diagnostic: it moves by a fifth between identical runs.
	RSSPeakMB float64     `json:"rss_peak_mb"`
	SetupsS   []float64   `json:"setups_s"`
	Counts    counts      `json:"counts"`
	Stages    *stageMeans `json:"stages,omitempty"`
	TraceFile string      `json:"trace_file,omitempty"`
}

type counts struct {
	Steers        int64 `json:"steers"`
	Attaches      int64 `json:"attaches"`
	FloorRequests int64 `json:"floor_requests"`
	PixelFrames   int64 `json:"pixel_frames"`
	Samples       int64 `json:"samples_emitted"`
}

func newResult(rc runConfig, ck *checks, setups []float64) *result {
	return &result{
		Workload: rc.w.Name, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		Box:     boxInfo(rc.outDir),
		Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Notes: ck.notes,
		Metrics: map[string]value{}, Timings: map[string]summary{}, SetupsS: setups,
	}
}

// fill computes the run's metrics from the window's edge snapshots and the
// actors' series. Every writer has stopped by now.
func (e *env) fill(r *result, c0, c1 counters, rssMB float64, goroutines int) {
	f, w := e.fleet, e.w
	secs := float64(c1.at-c0.at) / 1e9

	// steer→observe and frame latency are taken where the workload's
	// audience sits: the interested observers when there are any, else the
	// steering-tier viewers.
	var observe, frame []*series
	for _, v := range f.viewers {
		if (w.observers > 0) == (v.tier == core.TierObserver) {
			observe = append(observe, v.steerObserve)
			frame = append(frame, v.frameLatency)
		}
	}
	var attach, replayed, deny []*series
	var attaches, floorReqs int64
	for _, j := range f.joiners {
		attach, replayed = append(attach, j.attach), append(replayed, j.replayed)
		attaches += j.attempts.Load()
	}
	for _, k := range f.contenders {
		deny = append(deny, k.deny)
		floorReqs += k.requests.Load()
	}
	r.Timings["steer_observe_ms"] = summarize(1e6, observe...)
	r.Timings["steer_ack_ms"] = summarize(1e6, f.steerer.ack)
	r.Timings["frame_latency_ms"] = summarize(1e6, frame...)
	r.Timings["attach_ms"] = summarize(1e6, attach...)
	r.GeneratorLagMs = summarize(1e6, f.steerer.lag)
	r.Unresolved = r.GeneratorLagMs.P50 > 1
	r.Counts = counts{Steers: f.steerer.sent.Load(), Attaches: attaches, FloorRequests: floorReqs,
		Samples: int64(c1.sess.SamplesEmitted - c0.sess.SamplesEmitted)}
	if w.wall {
		r.Counts.PixelFrames = int64(e.app.wall.emitted.Load())
	}
	simSteps := float64(c1.steps-c0.steps) / secs

	if !e.traced {
		for _, m := range endToEnd {
			var v float64
			switch m.Name {
			case "setup_s":
				_, v, _, _ = spread(r.SetupsS)
			case "steer_observe_p50_ms":
				v = r.Timings["steer_observe_ms"].P50
			case "steer_ack_p50_ms":
				v = r.Timings["steer_ack_ms"].P50
			case "sim_steps_s":
				v = simSteps
			case "stream_mb_s":
				v = float64(c1.bytes-c0.bytes) / secs / 1e6
			case "frame_latency_p50_ms":
				v = r.Timings["frame_latency_ms"].P50
			case "attach_p50_ms":
				v = r.Timings["attach_ms"].P50
			case "rss_p90_mb":
				v = rssMB
			}
			r.Metrics[m.Name] = value{v, m.Unit}
		}
		return
	}
	e.fillLayers(r, c0, c1, simSteps, summarize(1e3, deny...).P50, summarize(1, replayed...).Mean, goroutines)
}

// fillLayers is the traced pass's half of fill: it joins the records into
// spans, writes them out and computes the per-layer table.
func (e *env) fillLayers(r *result, c0, c1 counters, simSteps, denyUs, replayedFrames float64, goroutines int) {
	f, w := e.fleet, e.w
	td := &traceData{app: e.app.tr, sent: f.steerer.log,
		seen: map[string][]seenRec{}, tierOf: map[string]string{}, decoded: map[string][]seenRec{}}
	for _, v := range f.viewers {
		td.seen[v.name], td.tierOf[v.name] = v.seen, v.tier.String()
		if v.wall != nil {
			td.decoded[v.name] = v.decoded
		}
	}
	spans, stages, deliver, ingress := td.build()
	r.Stages = &stages

	var decode series
	for _, recs := range td.decoded {
		for _, d := range recs {
			decode.n++
			decode.sum += d.done - d.at
		}
	}
	sd := func(a, b uint64) float64 { return float64(b - a) }
	s0, s1 := c0.sess, c1.sess
	delivered, dropped := sd(s0.SamplesDelivered, s1.SamplesDelivered), sd(s0.SamplesDropped, s1.SamplesDropped)
	batches := sd(s0.EgressBatchesVectored, s1.EgressBatchesVectored) + sd(s0.EgressBatchesBuffered, s1.EgressBatchesBuffered)
	tr := e.app.tr
	layer := map[string]float64{
		"core.ingress_apply_us":       summarize(1e3, ingress).P50,
		"core.poll_us":                tr.poll.mean() / 1e3,
		"core.emit_us":                tr.emit.mean() / 1e3,
		"core.deliver_steering_us":    summarize(1e3, deliver["steering"]).P50,
		"core.deliver_observer_us":    summarize(1e3, deliver["observer"]).P50,
		"core.samples_emitted":        sd(s0.SamplesEmitted, s1.SamplesEmitted),
		"core.samples_delivered":      delivered,
		"core.samples_dropped":        dropped,
		"core.delivered_share":        ratio(delivered, delivered+dropped),
		"core.frames_filtered":        sd(s0.FramesFiltered, s1.FramesFiltered),
		"core.relay_published":        sd(s0.RelayPublished, s1.RelayPublished),
		"core.relay_coalesced":        sd(s0.RelayCoalesced, s1.RelayCoalesced),
		"core.floor_deny_us":          denyUs,
		"core.floor_grants":           sd(c0.floor.Grants, c1.floor.Grants),
		"core.floor_denials":          sd(c0.floor.Denials, c1.floor.Denials),
		"core.floor_expiries":         sd(c0.floor.Expiries, c1.floor.Expiries),
		"hub.egress_batches_vectored": sd(c0.hub.EgressBatchesVectored, c1.hub.EgressBatchesVectored),
		"hub.egress_batches_buffered": sd(c0.hub.EgressBatchesBuffered, c1.hub.EgressBatchesBuffered),
		"hub.egress_frames_batch":     ratio(delivered, batches),
		"hub.egress_bytes_coalesced":  sd(c0.hub.EgressBytesCoalesced, c1.hub.EgressBytesCoalesced),
		"hub.egress_bytes_zero_copy":  sd(c0.hub.EgressBytesZeroCopy, c1.hub.EgressBytesZeroCopy),
		"hub.syscalls_saved":          sd(c0.hub.EgressSyscallsSaved, c1.hub.EgressSyscallsSaved),
		"hub.conns_accepted":          sd(c0.hub.ConnsAccepted, c1.hub.ConnsAccepted),
		"hub.conns_shed":              sd(c0.hub.ConnsShed, c1.hub.ConnsShed),
		"hub.handshake_fails":         sd(c0.hub.HandshakeFails, c1.hub.HandshakeFails),
		"pixel.decode_us_frame":       decode.mean() / 1e3,
		"pixel.encode_us_frame":       tr.encode.mean() / 1e3,
		"sim.step_us":                 tr.step.mean() / 1e3,
		"proc.cpu_s_kframe":           ratio(c1.cpu-c0.cpu, delivered/1e3),
		"proc.allocs_frame":           ratio(sd(c0.mem.Mallocs, c1.mem.Mallocs), delivered),
		"proc.gc_pause_ms":            sd(c0.mem.PauseTotalNs, c1.mem.PauseTotalNs) / 1e6,
		"proc.goroutines":             float64(goroutines),
		"trace.steer_observe_p50_ms":  r.Timings["steer_observe_ms"].P50,
		"trace.sim_steps_s":           simSteps,
		"trace.stage_sum_share":       stages.StageSumShare,
		"trace.spans":                 float64(len(spans)),
	}
	if w.wall {
		layer["pixel.compression_ratio"] = ratio(float64(e.app.wall.rawOut.Load()), float64(e.app.wall.encOut.Load()))
	}
	if w.journal {
		layer["journal.replayed_frames_attach"] = replayedFrames
	}
	r.Timings["pixel_encode_us"] = summarize(1e3, tr.encode)
	r.Timings["core_poll_us"] = summarize(1e3, tr.poll)
	r.Timings["core_emit_us"] = summarize(1e3, tr.emit)
	r.Timings["sim_step_us"] = summarize(1e3, tr.step)
	probeWire(layer)
	if w.journal {
		if err := probeJournal(e.outDir, layer); err != nil {
			r.Notes = append(r.Notes, "journal probe: "+err.Error())
		}
	}
	for _, m := range perLayer {
		r.Metrics[m.Name] = value{layer[m.Name], m.Unit}
	}
	if path, err := writeTrace(e.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, r.Seed), spans); err == nil {
		r.TraceFile = path
	} else {
		r.Notes = append(r.Notes, "trace not written: "+err.Error())
	}
	r.Notes = append(r.Notes, strings.TrimRight(spanTable(spans), "\n"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusMB reads one kB field of /proc/self/status, in MB: VmRSS is the
// resident set now, VmHWM its peak over the process's life.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func boxInfo(outDir string) box {
	b := box{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Kernel: "unknown", Commit: commit(), OutFS: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	dir := outDir
	if _, err := os.Stat(dir); err != nil {
		dir = "."
	}
	if syscall.Statfs(dir, &st) == nil {
		b.OutFS = fmt.Sprintf("0x%x", uint64(st.Type))
	}
	return b
}

// commit resolves HEAD of the repository above the benchmark directory by
// reading .git directly; the driver's checkout is no repository, and a
// result taken there says so.
func commit() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	return "unknown"
}

// print writes the human-readable table, then the full result as one
// "#detail" line, then — last — the contract's JSON object.
func (r *result) print(w io.Writer) {
	pass := "end-to-end (untraced)"
	specs := endToEnd
	if r.Traced {
		pass, specs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  %s ==\n", r.Workload, r.Seed, r.Seconds, pass)
	for _, m := range specs {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, name := range []string{"steer_observe_ms", "steer_ack_ms", "frame_latency_ms", "attach_ms"} {
		t := r.Timings[name]
		fmt.Fprintf(w, "  %-30s p50 %.4f  p%g %.4f  n %d\n", name, t.P50, t.TailPct, t.Tail, t.N)
	}
	fmt.Fprintf(w, "  %-30s p50 %.4f  p%g %.4f  n %d\n", "generator_lag_ms",
		r.GeneratorLagMs.P50, r.GeneratorLagMs.TailPct, r.GeneratorLagMs.Tail, r.GeneratorLagMs.N)
	if r.Unresolved {
		fmt.Fprintln(w, "  WARNING: the steerer ran more than 1 ms late at the median; latency metrics are unresolved")
	}
	if s := r.Stages; s != nil && s.Steers > 0 {
		fmt.Fprintf(w, "  stages over %d steers (mean us): ingress_apply %.1f + poll_tail %.1f + sim.step %.1f + emit %.1f + deliver %.1f = %.1f of steer→observe %.1f (share %.3f)\n",
			s.Steers, s.IngressApply, s.PollTail, s.SimStep, s.Emit, s.Deliver,
			s.IngressApply+s.PollTail+s.SimStep+s.Emit+s.Deliver, s.SteerObserve, s.StageSumShare)
	}
	fmt.Fprintf(w, "  failed %d of %d operations\n", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  "+strings.ReplaceAll(n, "\n", "\n  "))
	}
	detail, _ := json.Marshal(r)
	fmt.Fprintf(w, "#detail %s\n", detail)
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}
