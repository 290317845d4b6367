package main

import "time"

// metricSpec names one metric; the tables below are the program's copy of
// BENCHMARK.json (a test holds the two together).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the venue sees. Every workload reports
// every one of them, and none can be 0. Bounds come from calibration runs
// on the 2-core box (see README.md, "Steadiness").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"steer_observe_p50_ms", "ms", "lower", 0.25},
	{"steer_ack_p50_ms", "ms", "lower", 0.25},
	{"sim_steps_s", "1/s", "higher", 0.20},
	{"stream_mb_s", "MB/s", "higher", 0.20},
	{"frame_latency_p50_ms", "ms", "lower", 0.25},
	{"attach_p50_ms", "ms", "lower", 0.25},
	{"rss_p90_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics, one module each. They have no
// bound; a layer a workload leaves idle reports 0.
var perLayer = []metricSpec{
	{Name: "wire.codec_ns_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_frame", Unit: "count", Better: "lower"},
	{Name: "core.ingress_apply_us", Unit: "us", Better: "lower"},
	{Name: "core.poll_us", Unit: "us", Better: "lower"},
	{Name: "core.emit_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_steering_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_observer_us", Unit: "us", Better: "lower"},
	{Name: "core.samples_emitted", Unit: "count", Better: "higher"},
	{Name: "core.samples_delivered", Unit: "count", Better: "higher"},
	{Name: "core.samples_dropped", Unit: "count", Better: "lower"},
	{Name: "core.delivered_share", Unit: "share", Better: "higher"},
	{Name: "core.frames_filtered", Unit: "count", Better: "higher"},
	{Name: "core.relay_published", Unit: "count", Better: "higher"},
	{Name: "core.relay_coalesced", Unit: "count", Better: "lower"},
	{Name: "core.floor_deny_us", Unit: "us", Better: "lower"},
	{Name: "core.floor_grants", Unit: "count", Better: "lower"},
	{Name: "core.floor_denials", Unit: "count", Better: "higher"},
	{Name: "core.floor_expiries", Unit: "count", Better: "lower"},
	{Name: "hub.egress_batches_vectored", Unit: "count", Better: "higher"},
	{Name: "hub.egress_batches_buffered", Unit: "count", Better: "lower"},
	{Name: "hub.egress_frames_batch", Unit: "count", Better: "higher"},
	{Name: "hub.egress_bytes_coalesced", Unit: "bytes", Better: "higher"},
	{Name: "hub.egress_bytes_zero_copy", Unit: "bytes", Better: "higher"},
	{Name: "hub.syscalls_saved", Unit: "count", Better: "higher"},
	{Name: "hub.conns_accepted", Unit: "count", Better: "higher"},
	{Name: "hub.conns_shed", Unit: "count", Better: "lower"},
	{Name: "hub.handshake_fails", Unit: "count", Better: "lower"},
	{Name: "journal.record_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.maintain_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.replay_us_krec", Unit: "us", Better: "lower"},
	{Name: "journal.appends", Unit: "count", Better: "higher"},
	{Name: "journal.compactions", Unit: "count", Better: "higher"},
	{Name: "journal.mirror_bytes", Unit: "bytes", Better: "lower"},
	{Name: "journal.write_errors", Unit: "count", Better: "lower"},
	{Name: "journal.replayed_frames_attach", Unit: "count", Better: "lower"},
	{Name: "pixel.encode_us_frame", Unit: "us", Better: "lower"},
	{Name: "pixel.decode_us_frame", Unit: "us", Better: "lower"},
	{Name: "pixel.compression_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.step_us", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_s_kframe", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_frame", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines", Unit: "count", Better: "lower"},
	{Name: "trace.steer_observe_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.sim_steps_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.stage_sum_share", Unit: "share", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// workload is one traffic mix. Every workload runs the same cast — the
// stepping PEPC application, one master steerer (steerThink), viewers,
// lateJoiners late joiners — so that every end-to-end metric exists on
// every workload; the mixes differ in which layers carry the load.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	viewers    int  // steering-tier subscribe-all viewers, lossless
	contenders int  // of the viewers, how many also contend for the floor
	observers  int  // TierObserver clients subscribed to "echo"
	idle       int  // TierObserver clients subscribed to a channel never emitted
	journal    bool // hub.Config.JournalDir set; joiners replay
	prefill    int  // samples emitted into the journal before anyone attaches
	wall       bool // the application also publishes the pixel stream
}

var workloads = []workload{
	{
		Name:    "steer.room",
		Why:     "per-message path only: small frames, inline fan-out to 6 steering-tier viewers, coalesced egress; journal, relay and pixel layers idle",
		viewers: 6,
	},
	{
		Name:    "observe.hall",
		Why:     "fan-out used the other way: 48 observer-tier clients (8 interested) behind the interest filter, relay workers and coalescing, with floor contention",
		viewers: 4, contenders: 2, observers: 8, idle: 40,
	},
	{
		Name:    "pixels.wall",
		Why:     "egress used the other way: window-paced 512x512 tile frames as large zero-copy iovecs to 4 CRC-checking viewers, control traffic queued behind bulk",
		viewers: 4, wall: true,
	},
	{
		Name:    "join.replay",
		Why:     "journal writes (tap on every broadcast, maintenance, compaction) beside journal reads (2 late joiners replaying into attach): a gain for one that costs the other shows",
		viewers: 3, journal: true, prefill: 3000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Pinned shape of the steered application and the pixel wall.
const (
	simParticles = 64
	// simSeed pins the plasma ball. The step cost varies by about 5 % with
	// the initial condition (tight pairs deepen the tree), and that would
	// be charged to every metric's spread; --seed drives what the engine is
	// fed instead: think times and pixel content.
	simSeed   = 20030615
	emitEvery = 50 // steps between diagnostics samples

	steerThink  = 10 * time.Millisecond // steerer's mean think time (closed loop, ±20 % seeded)
	lateJoiners = 2                     // each cycling Dial → first live sample → Close → joinPause
	joinPause   = 100 * time.Millisecond
	echoParam   = "echo"
	echoChannel = "echo"
	idleChannel = "never-emitted"

	wallStream = "wall"
	wallSide   = 512 // framebuffer is wallSide x wallSide RGBA
	tileSide   = 64
	wallDirty  = 16 // tiles redrawn per frame: 25 % of the 64 tiles
	wallWindow = 3  // frames the producer may run ahead of the slowest viewer

	// sampleQueue is the session's per-client ring. The engine's default of
	// 16 holds about 30 ms of samples here, and the shared box stalls that
	// long now and then; at 256 only a half-second stall drops a frame, so a
	// drop on a lossless tier is a failure of the engine, not box noise.
	sampleQueue = 256

	warmupSteers = 10 // observed steers that end set-up
	setupRounds  = 9  // fewest set-ups per run; setup_s is their median
	setupBudget  = 2 * time.Second

	// runSeconds is BENCHMARK.json's run_seconds: what the matrix mode
	// passes to each run. The traced pass of the matrix runs half as long.
	runSeconds = 20
)
