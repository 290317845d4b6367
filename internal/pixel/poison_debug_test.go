//go:build framedebug

package pixel

import (
	"bytes"
	"testing"
)

// TestPoisonAfterApply (framedebug builds only): a callback that keeps
// Tile.Pix past its return reads poison whichever encoding the tile took,
// and the payload — shared between viewers — is never the thing poisoned.
func TestPoisonAfterApply(t *testing.T) {
	payload := mustTile(t, nil, Tile{W: 16, H: 16, Pix: flatPix(16, 16, 1)})
	payload = mustTile(t, payload, Tile{X: 16, W: 16, H: 16, Pix: noisePix(16, 16, 1)})
	if payload[0] != tileFlate || payload[len(payload)-16*16*4-tileHeaderLen] != tileRaw {
		t.Fatal("corpus no longer covers both tile encodings")
	}
	pristine := append([]byte(nil), payload...)
	var kept [][]byte
	if err := DecodeTiles(payload, func(tl Tile) error {
		kept = append(kept, tl.Pix) // a contract violation, kept deliberately
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, pix := range kept {
		if !bytes.Equal(pix, bytes.Repeat([]byte{tilePoison}, len(pix))) {
			t.Errorf("tile %d: retained pixels not poisoned", i)
		}
	}
	if !bytes.Equal(payload, pristine) {
		t.Fatal("poisoning wrote to the payload")
	}
}
