package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/hub"
)

// Scenario describes one load/soak run: the target, the fleet shape, the
// workload mix, and the measurement cadences. The zero value plus fill()
// yields the default mix cmd/steerload and the short-mode soak test use.
type Scenario struct {
	// Addr targets a live steerd listener ("host:port"). Empty starts an
	// in-process hub on a loopback TCP listener — still the real wire path
	// (client → TCP → hub → journal → client), just self-hosted, which is
	// what CI runs.
	Addr string `json:"addr,omitempty"`

	// Sessions is the number of steering sessions to drive (in-process
	// mode creates them; remote mode requires ≥ that many sessions served
	// by the target, named by SessionNames or steerd's -sessions scheme).
	Sessions int `json:"sessions"`
	// ClientsPerSession is the fleet size per session. One client is the
	// steerer (attaches WantMaster and drives SetParam); when Floor is on,
	// two are floor contenders; when Churn is on, two slots cycle
	// attach/detach; the rest are steady observers.
	ClientsPerSession int `json:"clients_per_session"`
	// SessionNames overrides the session names driven in remote mode;
	// empty derives "soak-00".."soak-NN" (in-process) or the target's
	// default session (remote, Sessions == 1).
	SessionNames []string `json:"session_names,omitempty"`

	// Duration bounds the run.
	Duration time.Duration `json:"duration_ns"`

	// SteerInterval is the cadence of the steerer's SetParam round trips.
	SteerInterval time.Duration `json:"steer_interval_ns"`
	// SampleInterval is the in-process application's steady emission
	// cadence (the broadcast fan-out load under the steering latency).
	SampleInterval time.Duration `json:"sample_interval_ns"`
	// BurstChannels is the number of data channels per emitted sample
	// (clamped to the paper-faithful 16); BurstLen is the float count per
	// channel. Together they size the broadcast payload.
	BurstChannels int `json:"burst_channels"`
	BurstLen      int `json:"burst_len"`
	// PayloadBytes, when positive, adds one bulk "payload" channel of
	// ~PayloadBytes to every emitted sample (in-process mode): the
	// large-frame workload that exercises the hub's zero-copy writev
	// egress, where each frame rides as its own iovec entry instead of
	// being copied into the gather scratch.
	PayloadBytes int `json:"payload_bytes,omitempty"`

	// Churn cycles two client slots per session through
	// attach → dwell → detach, measuring attach latency (which, with
	// Journal on, is the late-joiner replay flood path).
	Churn bool `json:"churn"`
	// ChurnDwell is how long a churning client stays attached.
	ChurnDwell time.Duration `json:"churn_dwell_ns,omitempty"`
	// Floor turns on the floor-contention storm: contenders hammer
	// TryRequestMaster against the held floor (expected denials) and
	// periodically queue-then-withdraw blocking requests.
	Floor bool `json:"floor"`
	// FloorInterval is the cadence of each contender's floor probes.
	FloorInterval time.Duration `json:"floor_interval_ns,omitempty"`

	// ObserverTier attaches the steady observers at core.TierObserver with
	// selective subscriptions: a fraction ObserverInterest of them
	// subscribe to the live "echo" channel (and so receive every sample),
	// the rest to a channel that never appears (and so receive nothing) —
	// the interest-managed fan-out shape of a big collaborative viewing
	// audience. Local mode only; remote observers attach as before.
	ObserverTier bool `json:"observer_tier"`
	// ObserverInterest is the interested fraction (default 0.01); at least
	// one observer per session is always interested so steer→observe keeps
	// recording.
	ObserverInterest float64 `json:"observer_interest,omitempty"`
	// ObserverInterval sets the in-process sessions' longest unprompted
	// spacing between observer flushes (0 keeps core's default, negative
	// flushes every frame).
	ObserverInterval time.Duration `json:"observer_interval_ns,omitempty"`
	// FanoutWorkers sizes the in-process sessions' relay pool (0 = auto).
	FanoutWorkers int `json:"fanout_workers,omitempty"`

	// Journal gives in-process sessions durable journals in a temp
	// directory, so churn exercises replay catch-up. Ignored in remote
	// mode (the target's configuration decides).
	Journal bool `json:"journal"`
	// MasterLease configures the in-process sessions' lease.
	MasterLease time.Duration `json:"master_lease_ns,omitempty"`

	// Param is the steered parameter name in remote mode (default
	// "miscibility-g", steerd's LB demo parameter); ParamMin/ParamMax
	// bound the values sent. In-process mode ignores these: the echo app
	// registers its own wide-range parameter.
	Param    string  `json:"param,omitempty"`
	ParamMin float64 `json:"param_min,omitempty"`
	ParamMax float64 `json:"param_max,omitempty"`
}

func (sc *Scenario) fill() {
	if sc.Sessions <= 0 {
		sc.Sessions = 4
	}
	if sc.ClientsPerSession <= 0 {
		sc.ClientsPerSession = 64
	}
	if sc.Duration <= 0 {
		sc.Duration = 20 * time.Second
	}
	if sc.SteerInterval <= 0 {
		sc.SteerInterval = 10 * time.Millisecond
	}
	if sc.SampleInterval <= 0 {
		sc.SampleInterval = 5 * time.Millisecond
	}
	if sc.BurstChannels <= 0 {
		sc.BurstChannels = 2
	}
	if sc.BurstChannels > 16 {
		sc.BurstChannels = 16 // the protocol's per-sample channel budget
	}
	if sc.BurstLen <= 0 {
		sc.BurstLen = 64
	}
	if sc.ChurnDwell <= 0 {
		sc.ChurnDwell = 150 * time.Millisecond
	}
	if sc.ObserverInterest <= 0 || sc.ObserverInterest > 1 {
		sc.ObserverInterest = 0.01
	}
	if sc.FloorInterval <= 0 {
		sc.FloorInterval = 20 * time.Millisecond
	}
	if sc.MasterLease == 0 {
		sc.MasterLease = 5 * time.Second
	}
	if sc.Param == "" {
		sc.Param = "miscibility-g"
		sc.ParamMin, sc.ParamMax = 0, 6
	}
}

// Counters are the run's cumulative event counts, separate from the latency
// distributions.
type Counters struct {
	Steers           uint64 `json:"steers"`
	SteerErrs        uint64 `json:"steer_errs"`
	SamplesObserved  uint64 `json:"samples_observed"`
	Attaches         uint64 `json:"attaches"`
	AttachErrs       uint64 `json:"attach_errs"`
	Churns           uint64 `json:"churns"`
	FloorDenials     uint64 `json:"floor_denials"`
	FloorWithdrawals uint64 `json:"floor_withdrawals"`
	UnexpectedGrants uint64 `json:"unexpected_grants"`
}

// Result is one completed run: the scenario, the latency distributions, the
// event counters, and (in-process mode) the hub's own view of the traffic.
//
// Histogram keys:
//
//	steer_observe — master's SetParam send → any observer seeing the new
//	                value arrive on the sample stream (the paper's
//	                steer→apply→observe round trip, the headline number)
//	steer_ack     — master's SetParam send → session ack (control-plane RTT)
//	attach        — dial → welcome, including journal replay for late joiners
//	sample_gap    — inter-arrival spacing of samples at one observer per
//	                session (fan-out jitter)
//	floor_deny    — TryRequestMaster send → explicit ErrFloorHeld denial
type Result struct {
	Scenario Scenario                 `json:"scenario"`
	Start    time.Time                `json:"start"`
	Elapsed  time.Duration            `json:"elapsed_ns"`
	Hist     map[string]*HistSnapshot `json:"hist"`
	Counters Counters                 `json:"counters"`
	// Hub is the in-process hub's aggregate at the end of the run (tier
	// counts sampled mid-run) and SamplesPerSec its emission rate over
	// Elapsed; against a live steerd both are unset.
	Hub           *hub.Stats `json:"hub,omitempty"`
	SamplesPerSec float64    `json:"samples_per_sec,omitempty"`
}

// Bench flattens the result into cmd/benchcompare's baseline shape:
// {"meta": ..., "bench": {"LoadSteerObserve/p99": {"ns_op": ...}, ...}}.
// Only distributions that actually recorded anything are emitted, so a
// remote run (no echo channel → no steer_observe) produces a comparable
// file without zero-filled keys.
func (r *Result) Bench() map[string]map[string]float64 {
	names := map[string]string{
		"steer_observe": "LoadSteerObserve",
		"steer_ack":     "LoadSteerAck",
		"attach":        "LoadAttach",
		"sample_gap":    "LoadSampleGap",
		"floor_deny":    "LoadFloorDeny",
	}
	out := make(map[string]map[string]float64)
	for key, s := range r.Hist {
		bench, ok := names[key]
		if !ok || s == nil || s.Count == 0 {
			continue
		}
		for q, v := range map[string]int64{
			"p50": s.P50, "p90": s.P90, "p99": s.P99, "p999": s.P999, "max": s.Max,
		} {
			out[bench+"/"+q] = map[string]float64{"ns_op": float64(v)}
		}
	}
	return out
}

// WriteJSON emits the benchcompare-compatible document: free-form meta
// (scenario, counters, hub stats, full histogram snapshots) plus the flat
// "bench" table cmd/benchcompare diffs against a committed baseline.
func (r *Result) WriteJSON(w io.Writer) error {
	doc := map[string]any{
		"meta": map[string]any{
			"harness":         "steerload",
			"scenario":        r.Scenario,
			"start":           r.Start,
			"elapsed_ns":      r.Elapsed,
			"counters":        r.Counters,
			"hub":             r.Hub,
			"samples_per_sec": r.SamplesPerSec,
			"histograms":      r.Hist,
			"description":     "steer→observe round-trip latency under load; see DESIGN.md §10.1",
		},
		"bench": r.Bench(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// String summarises the run for terminal output.
func (r *Result) String() string {
	line := func(key, label string) string {
		s := r.Hist[key]
		if s == nil || s.Count == 0 {
			return fmt.Sprintf("  %-14s (no observations)\n", label)
		}
		return fmt.Sprintf("  %-14s n=%-9d p50=%-10s p99=%-10s p999=%-10s max=%s\n",
			label, s.Count,
			time.Duration(s.P50), time.Duration(s.P99),
			time.Duration(s.P999), time.Duration(s.Max))
	}
	out := fmt.Sprintf("steerload: %d session(s) × %d client(s), %s elapsed\n",
		r.Scenario.Sessions, r.Scenario.ClientsPerSession, r.Elapsed.Round(time.Millisecond))
	out += line("steer_observe", "steer→observe")
	out += line("steer_ack", "steer→ack")
	out += line("attach", "attach")
	out += line("sample_gap", "sample gap")
	out += line("floor_deny", "floor deny")
	c := r.Counters
	out += fmt.Sprintf("  steers=%d (errs=%d) samples=%d attaches=%d (errs=%d) churns=%d denials=%d withdrawals=%d\n",
		c.Steers, c.SteerErrs, c.SamplesObserved, c.Attaches, c.AttachErrs,
		c.Churns, c.FloorDenials, c.FloorWithdrawals)
	if r.Hub != nil {
		out += fmt.Sprintf("  hub: emitted=%d delivered=%d dropped=%d applied=%d grants=%d denials=%d rate=%.0f/s\n",
			r.Hub.SamplesEmitted, r.Hub.SamplesDelivered, r.Hub.SamplesDropped,
			r.Hub.SteersApplied, r.Hub.Floor.Grants, r.Hub.Floor.Denials, r.SamplesPerSec)
		if r.Scenario.ObserverTier {
			out += fmt.Sprintf("  tiers: steerers=%d observers=%d filtered=%d relayed=%d coalesced=%d\n",
				r.Hub.TierSteerers, r.Hub.TierObservers, r.Hub.FramesFiltered,
				r.Hub.RelayPublished, r.Hub.RelayCoalesced)
		}
	}
	return out
}
