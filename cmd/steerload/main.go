// Command steerload is the load/soak driver that proves the hub's numbers
// end-to-end: N sessions × M clients over real TCP, a configurable mix of
// steady broadcast fan-out, attach/detach churn, floor request storms and
// journal-replay late joins, with the steer→apply→observe round trip
// measured by zero-alloc log-bucketed histograms (internal/loadgen).
//
// By default it self-hosts an in-process hub (still dialed over loopback
// TCP — the full wire path) with one echo application per session, which is
// what `make soak` and the nightly CI job run:
//
//	steerload -sessions 4 -clients 64 -duration 20s -churn -floor -journal \
//	          -out bench-soak.json
//
// With -observer-tier (local mode) the observer crowd attaches at
// core.TierObserver behind interest subscriptions — an -observer-interest
// fraction of it subscribed to the live echo channel, the rest to a channel
// that never fires — which is the `make soak-observer` / BENCH_8.json shape
// (1 steerer × 4096 observers at 1% interest); the fleet's attaches ramp
// over the first third of the run:
//
//	steerload -sessions 1 -clients 4096 -duration 20s -observer-tier \
//	          -observer-interest 0.01 -baseline BENCH_8.json
//
// Pointed at a live steerd it drives that instead; without the echo
// application the steer→observe distribution is empty, and the control-RTT,
// attach and floor histograms carry the result:
//
//	steerload -addr 127.0.0.1:8091 -sessions 1 -duration 30s
//
// The JSON it writes is a cmd/benchcompare baseline ({"meta": ..., "bench":
// {"LoadSteerObserve/p99": {"ns_op": ...}, ...}}), so runs diff against each
// other and against the committed BENCH_6.json. -baseline compares the run
// against such a file directly and exits 1 on regression; an -out naming the
// same file is refused, since it would overwrite the baseline first:
//
//	steerload -duration 60s -baseline BENCH_6.json -max-regress 3.0
//
// -gate restricts which bench keys the comparison judges; the default gates
// the latency quantiles that stay stable across journal growth (attach p99
// legitimately rises as a journaled session's replay history accumulates).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var sc loadgen.Scenario
	flag.StringVar(&sc.Addr, "addr", "", "live steerd address; empty self-hosts an in-process hub over loopback TCP")
	flag.IntVar(&sc.Sessions, "sessions", 4, "number of sessions to drive")
	flag.IntVar(&sc.ClientsPerSession, "clients", 64, "clients per session (1 steerer, contenders/churners per -floor/-churn, rest observers)")
	flag.DurationVar(&sc.Duration, "duration", 20*time.Second, "run length")
	flag.DurationVar(&sc.SteerInterval, "steer-interval", 10*time.Millisecond, "cadence of the steerer's SetParam round trips")
	flag.DurationVar(&sc.SampleInterval, "sample-interval", 5*time.Millisecond, "echo application's steady sample emission cadence")
	flag.IntVar(&sc.BurstChannels, "burst-channels", 2, "channels per emitted sample (≤16)")
	flag.IntVar(&sc.BurstLen, "burst-len", 64, "floats per burst channel")
	flag.IntVar(&sc.PayloadBytes, "payload-bytes", 0, "add one bulk channel of ~N bytes per sample (0 = off): the zero-copy writev egress workload")
	flag.BoolVar(&sc.Churn, "churn", false, "cycle two clients per session through attach/detach (journal replay floods when -journal)")
	flag.BoolVar(&sc.Floor, "floor", false, "run two floor contenders per session against the held floor")
	flag.BoolVar(&sc.Journal, "journal", false, "journal in-process sessions in a temp dir (late joins replay history)")
	flag.BoolVar(&sc.ObserverTier, "observer-tier", false, "attach observers at the observer tier with interest subscriptions (local mode)")
	flag.Float64Var(&sc.ObserverInterest, "observer-interest", 0.01, "fraction of observers subscribed to the live echo channel")
	flag.DurationVar(&sc.ObserverInterval, "observer-interval", 0, "longest unprompted spacing between observer flushes; steer-caused frames are not held (0 = core default, negative = flush every frame)")
	flag.IntVar(&sc.FanoutWorkers, "fanout-workers", 0, "session relay workers (0 = auto)")
	sessionNames := flag.String("session-names", "", "comma-separated session names to drive (remote mode; default derives steerd's naming)")
	flag.StringVar(&sc.Param, "param", "", `steered parameter in remote mode (default "miscibility-g")`)
	flag.Float64Var(&sc.ParamMin, "param-min", 0, "steered parameter range low (remote mode)")
	flag.Float64Var(&sc.ParamMax, "param-max", 6, "steered parameter range high (remote mode)")
	out := flag.String("out", "", "write the benchcompare-compatible JSON result here")
	baseline := flag.String("baseline", "", "compare against a committed baseline JSON and exit 1 on regression")
	maxRegress := flag.Float64("max-regress", 2.0, "regression factor tolerated vs -baseline (0 disables the gate)")
	gate := flag.String("gate", "^Load(SteerObserve|SteerAck|FloorDeny)/p99$", "regexp selecting which bench keys the -baseline gate judges")
	flag.Parse()
	if err := run(sc, *sessionNames, *out, *baseline, *maxRegress, *gate); err != nil {
		fmt.Fprintf(os.Stderr, "steerload: %v\n", err)
		os.Exit(1)
	}
}

func run(sc loadgen.Scenario, sessionNames, out, baseline string, maxRegress float64, gate string) error {
	if out != "" && baseline != "" && filepath.Clean(out) == filepath.Clean(baseline) {
		return fmt.Errorf("-out %s names the -baseline file: the run would overwrite it before comparing", out)
	}
	if sessionNames != "" {
		for _, n := range strings.Split(sessionNames, ",") {
			if n = strings.TrimSpace(n); n != "" {
				sc.SessionNames = append(sc.SessionNames, n)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := loadgen.Run(ctx, sc)
	if err != nil {
		return err
	}
	fmt.Print(res)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("steerload: wrote %s\n", out)
	}
	if baseline != "" && maxRegress > 0 {
		return compare(res, baseline, maxRegress, gate)
	}
	return nil
}

// compare diffs the run's gated bench keys against a committed baseline in
// cmd/benchcompare's format and errors when any regresses beyond the
// allowed factor. Keys missing from either side are reported but don't
// fail the gate: a shorter run may legitimately record no floor denials.
func compare(res *loadgen.Result, path string, maxRegress float64, gate string) error {
	re, err := regexp.Compile(gate)
	if err != nil {
		return fmt.Errorf("bad -gate: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base struct {
		Bench map[string]struct {
			NsOp float64 `json:"ns_op"`
		} `json:"bench"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}

	cur := res.Bench()
	var regressed []string
	checked := 0
	for key, want := range base.Bench {
		if !re.MatchString(key) {
			continue
		}
		got, ok := cur[key]
		if !ok {
			fmt.Printf("steerload: gate: %-24s missing from this run (skipped)\n", key)
			continue
		}
		checked++
		ratio := got["ns_op"] / want.NsOp
		verdict := "ok"
		if ratio > maxRegress {
			verdict = "REGRESSED"
			regressed = append(regressed, key)
		}
		fmt.Printf("steerload: gate: %-24s %12s -> %12s  (%.2fx, limit %.2fx) %s\n",
			key, time.Duration(want.NsOp), time.Duration(got["ns_op"]), ratio, maxRegress, verdict)
	}
	if checked == 0 {
		return fmt.Errorf("gate %q matched no baseline keys in %s", gate, path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("p99 regression vs %s: %s", path, strings.Join(regressed, ", "))
	}
	return nil
}
