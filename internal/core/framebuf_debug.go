//go:build framedebug

package core

import "math"

// FrameDebug reports whether the framedebug poison mode is compiled in.
const FrameDebug = true

// FramePoison is the byte poisonFrame fills released buffers with; exported
// so lifetime tests in other packages can assert on it.
const FramePoison = 0xDB

// poisonFrame overwrites the full capacity of a buffer on its way back to
// the pool, so a holder reading (or writing) past its last Release sees
// garbage deterministically instead of silently racing the buffer's next
// user. Enabled with `go test -tags framedebug`; the CI race job runs the
// core and journal suites under it.
func poisonFrame(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = FramePoison
	}
}

// scratchPoison is FramePoison in every byte of a 64-bit word, and
// poisonString the string form of it.
const (
	scratchPoison = 0x0101010101010101 * FramePoison
	poisonString  = "\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xdb"
)

// poisonScratch overwrites the full capacity of a decode scratch's arenas
// as it is reset between envelopes, so a slice that escaped an envelope
// without being copied out reads poison instead of the next envelope's
// fields. Blob slots are not poisoned: their bytes belong to the envelope.
func poisonScratch(sc *envScratch) {
	word := uint64(scratchPoison)
	ints := sc.ints[:cap(sc.ints)]
	for i := range ints {
		ints[i] = int64(word)
	}
	floats := sc.floats[:cap(sc.floats)]
	for i := range floats {
		floats[i] = math.Float64frombits(word)
	}
	strs := sc.strs[:cap(sc.strs)]
	for i := range strs {
		strs[i] = poisonString
	}
}
