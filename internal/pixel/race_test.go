//go:build race

package pixel

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool deliberately drops ~25% of Puts, so the zero-alloc guard
// skips itself (the non-race run of the same suite enforces it).
const raceEnabled = true
