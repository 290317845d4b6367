package pepc

import "testing"

// benchSim builds the pinned benchmark's app: 64 particles in a unit plasma
// ball, one force worker, θ 0.5.
func benchSim(tb testing.TB) *Sim {
	tb.Helper()
	s, err := New(Params{Theta: 0.5, Dt: 0.001, Workers: 1, Seed: 20030615})
	if err != nil {
		tb.Fatal(err)
	}
	s.AddPlasmaBall(64, Vec{}, 1, 0.1)
	return s
}

// BenchmarkStep times one leapfrog step at the benchmark app's shape: tree
// rebuild, force walk on the worker goroutine, and the push.
func BenchmarkStep(b *testing.B) {
	s := benchSim(b)
	for i := 0; i < 16; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
