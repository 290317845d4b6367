package loadgen

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestShortSoak runs the full harness — in-process hub, loopback TCP,
// journaled sessions, churn and floor contention — for about a second, so
// every tier-1 CI run (including -race) exercises the complete
// client→TCP→hub→journal→client loop and the steer→observe measurement
// path, not just their units. `make soak` runs the same scenario bigger and
// longer.
func TestShortSoak(t *testing.T) {
	sc := Scenario{
		Sessions:          4,
		ClientsPerSession: 8,
		Duration:          1200 * time.Millisecond,
		SteerInterval:     10 * time.Millisecond,
		SampleInterval:    5 * time.Millisecond,
		ChurnDwell:        80 * time.Millisecond,
		Churn:             true,
		Floor:             true,
		Journal:           true,
	}
	if testing.Short() {
		sc.Sessions = 2
		sc.ClientsPerSession = 6
		sc.Duration = 500 * time.Millisecond
	}

	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("\n%s", res)

	c := res.Counters
	if c.Steers == 0 {
		t.Error("no steers completed")
	}
	if c.SteerErrs != 0 {
		t.Errorf("steer errors: %d", c.SteerErrs)
	}
	if c.AttachErrs != 0 {
		t.Errorf("attach errors: %d", c.AttachErrs)
	}
	if c.SamplesObserved == 0 {
		t.Error("no samples observed")
	}
	if c.Churns == 0 {
		t.Error("churners never completed a cycle")
	}
	if c.FloorDenials == 0 {
		t.Error("floor storm produced no denials — floor was not contended")
	}

	so := res.Hist["steer_observe"]
	if so == nil || so.Count == 0 {
		t.Fatal("no steer→observe round trips measured")
	}
	if so.P50 <= 0 || so.P99 < so.P50 || so.P999 < so.P99 || so.Max < so.P999 {
		t.Errorf("quantiles not monotone: %+v", so)
	}
	// The round trip includes the app's 500µs poll cadence; anything beyond
	// 30s would mean the measurement (not the hub) is broken.
	if so.Max > int64(30*time.Second) {
		t.Errorf("implausible steer→observe max %v", time.Duration(so.Max))
	}
	if res.Hist["attach"].Count == 0 {
		t.Error("no attach latencies recorded")
	}
	if res.Hub == nil {
		t.Fatal("in-process run missing hub stats")
	}
	if res.Hub.SamplesEmitted == 0 || res.Hub.SteersApplied == 0 {
		t.Errorf("hub saw no traffic: %+v", res.Hub)
	}
	if res.SamplesPerSec <= 0 {
		t.Errorf("emission rate = %v, want > 0", res.SamplesPerSec)
	}
}

// TestResultJSONShape pins the benchcompare contract: the emitted document
// must carry a "bench" table keyed Load*/quantile with ns_op values, and
// quantile-free distributions must be omitted rather than zero-filled.
func TestResultJSONShape(t *testing.T) {
	res := &Result{
		Scenario: Scenario{Sessions: 1, ClientsPerSession: 2},
		Hist: map[string]*HistSnapshot{
			"steer_observe": {Count: 10, P50: 100, P90: 200, P99: 300, P999: 400, Max: 500},
			"floor_deny":    {Count: 0},
		},
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Meta  map[string]json.RawMessage    `json:"meta"`
		Bench map[string]map[string]float64 `json:"bench"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got := doc.Bench["LoadSteerObserve/p99"]["ns_op"]; got != 300 {
		t.Errorf("LoadSteerObserve/p99 ns_op = %v, want 300", got)
	}
	if got := doc.Bench["LoadSteerObserve/max"]["ns_op"]; got != 500 {
		t.Errorf("LoadSteerObserve/max ns_op = %v, want 500", got)
	}
	if _, ok := doc.Bench["LoadFloorDeny/p99"]; ok {
		t.Error("empty distribution leaked into bench table")
	}
	if _, ok := doc.Meta["scenario"]; !ok {
		t.Error("meta missing scenario")
	}
}
