package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSpecMatchesBenchmarkJSON holds the program's metric and workload
// tables to BENCHMARK.json, and both to the driver's contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program runs %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v", doc.Paths)
	}
	// 4 + 22 runs per workload, each with its set-up rounds and tear-down
	// (under 8 s on the slowest workload), inside the driver's 3420 s.
	if total := (4 + 22*len(doc.Workloads)) * (doc.RunSeconds + 8); total > 3420-300 {
		t.Errorf("%d s of runs leaves no room for two builds", total)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	uniq := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads in the file, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		uniq(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file has %q, program %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file, prog []metricSpec, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(file), len(prog))
		}
		for i, m := range file {
			uniq(m.Name)
			if m != prog[i] {
				t.Errorf("%s %d: file %+v, program %+v", kind, i, m, prog[i])
			}
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each result carries every metric the contract names for that pass,
// that no check failed, and that each workload's dominant layer shows.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	out := t.TempDir()
	layers := map[string]map[string]value{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{w: w, seed: 7, seconds: 0.6, traced: traced, outDir: out, rounds: 1})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: failed %d of %d: %v", w.Name, traced, res.Failed, res.Attempted, res.Notes)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
				layers[w.Name] = res.Metrics
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s missing or malformed: %+v", w.Name, m.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it may never be 0", w.Name, m.Name, v.Value)
				}
			}

			// The last line of the output is the contract's object, with
			// exactly its four keys.
			var buf bytes.Buffer
			res.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line has keys %v", w.Name, last)
			}
		}
	}
	if t.Failed() {
		return
	}
	at := func(w, m string) float64 { return layers[w][m].Value }
	if s := at("steer.room", "trace.stage_sum_share"); math.Abs(s-1) > 0.05 {
		t.Errorf("steer.room: stage means sum to %.3f of mean steer→observe, want within 5 %%", s)
	}
	if room, wall := at("steer.room", "hub.egress_bytes_zero_copy"), at("pixels.wall", "hub.egress_bytes_zero_copy"); wall < 1e6 || room > wall/100 {
		t.Errorf("zero-copy egress: steer.room %v bytes, pixels.wall %v; want about none and a lot", room, wall)
	}
	if st, ob := at("observe.hall", "core.deliver_steering_us"), at("observe.hall", "core.deliver_observer_us"); ob < 5*st {
		t.Errorf("observe.hall: deliver at observer tier %v us, steering tier %v us; the relay's coalescing should dominate", ob, st)
	}
	for _, w := range workloads {
		for _, m := range []string{"journal.appends", "journal.record_ns", "journal.replayed_frames_attach"} {
			if got := at(w.Name, m); (got > 0) != w.journal {
				t.Errorf("%s: %s = %v, want non-zero only with a journal", w.Name, m, got)
			}
		}
		if got := at(w.Name, "pixel.encode_us_frame"); (got > 0) != w.wall {
			t.Errorf("%s: pixel.encode_us_frame = %v, want non-zero only on the wall", w.Name, got)
		}
	}
}

// TestBadFramesFailTheRun injects a dropped frame and a wrong CRC into a
// wall viewer and checks the run would be reported failed.
func TestBadFramesFailTheRun(t *testing.T) {
	frames := func(n int) []*core.Blob {
		w := newWall(3, 1)
		var out []*core.Blob
		for i := 0; i < n; i++ {
			b := w.next()
			cp := *b
			cp.Data = append([]byte(nil), b.Data...)
			out = append(out, &cp)
		}
		return out
	}
	run := func(name string, mutate func([]*core.Blob) []*core.Blob) *result {
		v := &viewer{name: name, tier: core.TierSteering, wall: newWallViewer()}
		in := frames(6)
		for _, b := range mutate(in) {
			v.wall.handle(b)
		}
		ck := &checks{}
		v.check(ck, 0, int64(len(in)))
		return newResult(runConfig{w: workloads[2], outDir: t.TempDir()}, ck, []float64{1})
	}

	if r := run("clean", func(f []*core.Blob) []*core.Blob { return f }); !r.Correct || r.Failed != 0 {
		t.Fatalf("clean stream reported failed: %+v", r.Notes)
	}
	// Frame 3 never arrives: it is lost, and the deltas after it have no
	// base until the next keyframe.
	r := run("dropped", func(f []*core.Blob) []*core.Blob { return append(f[:2:2], f[3:]...) })
	if r.Correct || r.Failed != 4 {
		t.Errorf("dropped frame: correct=%v failed=%d, want failed and 4 (the lost frame and the 3 deltas after it)", r.Correct, r.Failed)
	}
	r = run("corrupt", func(f []*core.Blob) []*core.Blob {
		f[1].Flags ^= 1 << 20 // one bit of the stamped CRC
		return f
	})
	if r.Correct || r.Failed < 1 {
		t.Errorf("wrong CRC: correct=%v failed=%d, want failed", r.Correct, r.Failed)
	}
	r = run("torn", func(f []*core.Blob) []*core.Blob {
		f[4].Data = f[4].Data[:len(f[4].Data)/2]
		return f
	})
	if r.Correct {
		t.Error("truncated payload: run reported correct")
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {10000000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%v, want p%v", c.n, got, c.want)
		}
	}
	s := newSeries(2000)
	for i := 1; i <= 1000; i++ {
		s.add(int64(i) * 1000)
	}
	sum := summarize(1e3, s)
	if sum.N != 1000 || sum.TailPct != 99 || math.Abs(sum.P50-500.5) > 1e-9 || math.Abs(sum.Tail-990.01) > 1e-6 || math.Abs(sum.Mean-500.5) > 1e-9 {
		t.Errorf("summary %+v", sum)
	}
}

func TestSeriesDecimatesWithoutLosingCount(t *testing.T) {
	s := newSeries(64)
	for i := 0; i < 10000; i++ {
		s.add(int64(i))
	}
	if s.n != 10000 || len(s.v) > 64 || len(s.v) < 16 {
		t.Fatalf("n=%d kept=%d", s.n, len(s.v))
	}
	// What is kept stays uniform in time: the median survives.
	if p50 := summarize(1, s).P50; math.Abs(p50-5000) > 500 {
		t.Errorf("median of 0..9999 after decimation: %v", p50)
	}
	if m := s.mean(); math.Abs(m-4999.5) > 1e-9 {
		t.Errorf("mean %v", m)
	}
}

// TestSpreadMatchesPython compares with statistics.quantiles(v, n=4) on the
// values 1..10: [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	q1, med, q3, share := spread([]float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5})
	if math.Abs(q1-2.75) > 1e-9 || med != 5.5 || math.Abs(q3-8.25) > 1e-9 || math.Abs(share-1) > 1e-9 {
		t.Errorf("q1 %v med %v q3 %v share %v", q1, med, q3, share)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 130},  // runs past the parent: clipped
		{Name: "a1", Parent: 1, Start: 10, End: 25},  // a's own child
		{Name: "d", Parent: 0, Start: 70, End: 70},   // empty
		{Name: "e", Parent: 0, Start: -20, End: 5},   // starts before the parent: clipped
		{Name: "lone", Parent: -1, Start: 5, End: 9}, // no children
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - (50 + 10 + 5), "a": 15, "b": 30, "c": 40, "a1": 15, "d": 0, "e": 25, "lone": 4}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestCompareRefusesDifferentBoxesAndSeeds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mf matrixFile) string {
		data, _ := json.Marshal(mf)
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	entry := func(observe float64) []matrixEntry {
		m := map[string]value{}
		for _, s := range endToEnd {
			m[s.Name] = value{1, s.Unit}
		}
		m["steer_observe_p50_ms"] = value{observe, "ms"}
		return []matrixEntry{{Workload: "steer.room", Metrics: m, Spread: map[string]float64{}}}
	}
	base := matrixFile{Box: box{NProc: 2, CPU: "x", Commit: "aaa"}, Seed: 1, Seconds: 20, Workloads: entry(1)}
	same := base
	same.Box.Commit = "bbb"
	a := write("a.json", base)
	var buf bytes.Buffer
	if code := compareFiles(&buf, a, write("b.json", same)); code != 0 {
		t.Errorf("identical results on another commit: exit %d\n%s", code, buf.String())
	}
	worse := same
	worse.Workloads = entry(1.5)
	buf.Reset()
	if code := compareFiles(&buf, a, write("c.json", worse)); code != 1 || !strings.Contains(buf.String(), "WORSE") {
		t.Errorf("a 50 %% slower steer→observe: exit %d\n%s", code, buf.String())
	}
	otherBox, otherSeed := same, same
	otherBox.Box.NProc = 16
	otherSeed.Seed = 2
	if code := compareFiles(&buf, a, write("d.json", otherBox)); code != 2 {
		t.Errorf("differing boxes: exit %d, want a refusal", code)
	}
	if code := compareFiles(&buf, a, write("e.json", otherSeed)); code != 2 {
		t.Errorf("differing seeds: exit %d, want a refusal", code)
	}
}
