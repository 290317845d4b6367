//go:build !framedebug

package pixel

// poisonTiles is off in normal builds: DecodeTiles lends raw tiles straight
// from the payload and leaves its scratch alone.
const poisonTiles = false

func poisonTile([]byte) {}
