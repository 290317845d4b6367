package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The matrix modes run each workload as the driver does: one fresh process
// per run (this binary again, with --workload), so peak RSS, set-up time and
// the goroutine baseline mean the same here as there.

// matrixFile is what a matrix run leaves under out/ and what --compare
// reads.
type matrixFile struct {
	Box       box           `json:"box"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Sets      int           `json:"sets"`
	Workloads []matrixEntry `json:"workloads"`
}

type matrixEntry struct {
	Workload string `json:"workload"`
	// Metrics are the end-to-end medians over the sets (one set: the run's
	// own values); Spread the interquartile range over the median.
	Metrics    map[string]value   `json:"metrics"`
	Spread     map[string]float64 `json:"spread,omitempty"`
	Unresolved bool               `json:"unresolved"`
	Failed     int64              `json:"failed"`
	Attempted  int64              `json:"attempted"`

	PerLayer           map[string]value `json:"per_layer,omitempty"`
	TraceOverheadShare float64          `json:"trace_overhead_share,omitempty"`
	Runs               []*result        `json:"runs"`
}

// child runs one workload in a fresh process and returns its result. The
// child's table goes to w.
func child(w io.Writer, wl workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", wl.Name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // waits for the child; a failed check exits 1 but still reports
	var res *result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if detail, ok := strings.CutPrefix(line, "#detail "); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(detail), res); err != nil {
				return nil, fmt.Errorf("%s: unreadable result: %w", wl.Name, err)
			}
		} else if line != "" && !strings.HasPrefix(line, "{") {
			fmt.Fprintln(w, line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no result (%v)", wl.Name, runErr)
	}
	return res, nil
}

// runMatrix is the one command: every workload untraced, then traced (half
// as long), every metric printed by name and unit. With sets > 0 it runs
// the untraced matrix that many times instead, alternating the order, and
// reports each end-to-end metric's median, quartiles and spread against its
// bound. The exit code is non-zero on a failed check or an unsteady metric.
func runMatrix(w io.Writer, seed int64, seconds float64, sets int, outDir string) int {
	exit := 0
	mf := matrixFile{Seed: seed, Seconds: seconds, Sets: max(sets, 1)}
	entries := make(map[string]*matrixEntry)
	for _, wl := range workloads {
		entries[wl.Name] = &matrixEntry{Workload: wl.Name, Metrics: map[string]value{}, Spread: map[string]float64{}}
	}
	for set := 0; set < mf.Sets; set++ {
		order := append([]workload(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			res, err := child(w, wl, seed, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			e := entries[wl.Name]
			e.Runs = append(e.Runs, res)
			e.Failed += res.Failed
			e.Attempted += res.Attempted
			e.Unresolved = e.Unresolved || res.Unresolved
			mf.Box = res.Box
			if sets > 0 {
				continue
			}
			traced, err := child(w, wl, seed, seconds/2, true, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			e.PerLayer = traced.Metrics
			e.Failed += traced.Failed
			e.Attempted += traced.Attempted
			base := res.Metrics["steer_observe_p50_ms"].Value
			e.TraceOverheadShare = ratio(traced.Metrics["trace.steer_observe_p50_ms"].Value-base, base)
			fmt.Fprintf(w, "  %-30s %16.4f share (traced steer→observe p50 over untraced %.4f ms)\n\n",
				"trace_overhead_share", e.TraceOverheadShare, base)
		}
	}

	fmt.Fprintf(w, "== summary: seed %d, %g s, %d set(s) ==\n", seed, seconds, mf.Sets)
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %12s %-6s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "unit", "spread", "bound")
	for _, wl := range workloads {
		e := entries[wl.Name]
		for _, m := range endToEnd {
			vals := make([]float64, len(e.Runs))
			for i, r := range e.Runs {
				vals[i] = r.Metrics[m.Name].Value
			}
			q1, med, q3, share := vals[0], vals[0], vals[0], 0.0
			if len(vals) > 1 {
				q1, med, q3, share = spread(vals)
			}
			e.Metrics[m.Name] = value{med, m.Unit}
			e.Spread[m.Name] = share
			verdict := ""
			// The set-up time's spread is reported, not judged: the driver
			// too only compares its medians.
			if share > m.Bound && m.Name != "setup_s" {
				verdict = "  UNSTEADY"
				exit = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %12.4f %-6s %8.4f %6.2f%s\n",
				wl.Name, m.Name, q1, med, q3, m.Unit, share, m.Bound, verdict)
		}
		if e.Failed > 0 {
			fmt.Fprintf(w, "%-14s FAILED %d of %d operations\n", wl.Name, e.Failed, e.Attempted)
			exit = 1
		}
		mf.Workloads = append(mf.Workloads, *e)
	}

	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	data, err := json.MarshalIndent(mf, "", " ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: result not written:", err)
		return 2
	}
	fmt.Fprintln(w, "result written to", path)
	return exit
}

func loadMatrix(path string) (*matrixFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mf := &matrixFile{}
	if err := json.Unmarshal(data, mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mf, nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// values, the change as a share of the first file's value, the bound and a
// verdict. It refuses results from differing boxes, seeds or run lengths,
// and exits non-zero when a metric got worse by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadMatrix(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadMatrix(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	boxA, boxB := a.Box, b.Box
	boxA.Commit, boxB.Commit = "", "" // the commit is what is being compared
	if boxA != boxB || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: box, seed or run length differ\n  %s: %+v seed %d %g s\n  %s: %+v seed %d %g s\n",
			pathA, boxA, a.Seed, a.Seconds, pathB, boxB, b.Seed, b.Seconds)
		return 2
	}
	fmt.Fprintf(w, "base %s (%s) vs %s (%s), seed %d\n", pathA, a.Box.Commit, pathB, b.Box.Commit, a.Seed)
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %-6s %9s %6s  %s\n", "workload", "metric", "base", "new", "unit", "delta", "bound", "verdict")
	exit := 0
	byName := map[string]matrixEntry{}
	for _, e := range b.Workloads {
		byName[e.Workload] = e
	}
	for _, ea := range a.Workloads {
		eb, ok := byName[ea.Workload]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ea.Metrics[m.Name].Value, eb.Metrics[m.Name].Value
			delta := ratio(vb-va, va)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "within bound"
			switch {
			case ea.Unresolved || eb.Unresolved || ea.Spread[m.Name] > m.Bound || eb.Spread[m.Name] > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
				exit = 1
			case a.Sets > 1 && b.Sets > 1 && worse < -max(ea.Spread[m.Name], eb.Spread[m.Name]):
				// Better only beyond both sides' own run-to-run spread,
				// which a single set does not show.
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %-6s %+8.1f%% %6.2f  %s (of base %.4f)\n",
				ea.Workload, m.Name, va, vb, m.Unit, 100*delta, m.Bound, verdict, va)
		}
	}
	return exit
}
