//go:build !framedebug

package core

// FrameDebug reports whether the framedebug poison mode is compiled in.
const FrameDebug = false

// FramePoison is the byte poisonFrame fills released buffers with under the
// framedebug tag; exported so lifetime tests in other packages can assert
// on it.
const FramePoison = 0xDB

// poisonFrame is a no-op in normal builds: releasing a frame to the pool
// leaves its bytes untouched.
func poisonFrame([]byte) {}

// poisonScratch is a no-op in normal builds: a reset decode scratch keeps
// its stale numbers until the next envelope overwrites them.
func poisonScratch(*envScratch) {}
