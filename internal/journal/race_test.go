//go:build race

package journal

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool deliberately drops ~25% of Puts: pooled-frame reuse
// becomes probabilistic, so the AllocsPerRun guard skips (the non-race run
// of the same suite enforces it).
const raceEnabled = true
