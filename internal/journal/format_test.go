package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestSegmentBytesMatchFormat: a journal's segment is exactly the
// documented format — header, then length | CRC-32/IEEE(body) | body per
// record — built here independently of appendRecord and crcRecord.
func TestSegmentBytesMatchFormat(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, segHeaderSize)
	binary.BigEndian.PutUint32(want[0:4], segMagic)
	binary.BigEndian.PutUint32(want[4:8], segVersion)
	for i := 0; i < 300; i++ {
		class := []core.JournalClass{core.JournalState, core.JournalEvent, core.JournalSample}[i%3]
		frame := bytes.Repeat(frameOf(class, i), i%7)
		rec(j, class, frame)
		body := append([]byte{byte(class)}, frame...)
		want = binary.BigEndian.AppendUint32(want, uint32(len(body)))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segFiles(t, dir)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from the format (%d vs %d bytes)", len(got), len(want))
	}
}
