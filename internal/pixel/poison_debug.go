//go:build framedebug

package pixel

// poisonTiles (the framedebug build tag) makes DecodeTiles enforce the
// Tile.Pix lifetime rule: every tile, raw ones included, is lent from the
// decoder's scratch and overwritten with tilePoison as soon as the callback
// returns, so a caller that kept the slice reads garbage deterministically
// instead of whatever tile happens to be decoded next.
const poisonTiles = true

// tilePoison is the byte core.FramePoison uses for released frames.
const tilePoison = 0xDB

func poisonTile(pix []byte) {
	for i := range pix {
		pix[i] = tilePoison
	}
}
