//go:build !race

package pepc

import "testing"

// TestStepAllocBound pins the per-step garbage of the benchmark app's shape.
// The race detector instruments goroutine start-up with allocations of its
// own, so the bound holds only in the non-race run.
func TestStepAllocBound(t *testing.T) {
	s := benchSim(t)
	for i := 0; i < 16; i++ { // warm: the tree's slices and the force buffer grown
		s.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { s.tree.build(s.pos, s.charge) }); allocs != 0 {
		t.Fatalf("tree rebuild: %v allocs, want 0", allocs)
	}
	// What remains is starting the force worker: its closure, and the
	// WaitGroup and interaction total it shares, escape to the heap.
	if allocs := testing.AllocsPerRun(200, s.Step); allocs > 5 {
		t.Fatalf("Step: %v allocs, want ≤ 5", allocs)
	}
}
