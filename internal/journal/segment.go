package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk format. A segment file is a 16-byte header followed by records:
//
//	header:  magic "SCJL" (4B) | format version (4B BE) | reserved (8B)
//	record:  body length (4B BE) | CRC-32/IEEE of body (4B) | body
//	body:    class (1B) | frame bytes (the pre-encoded wire envelope)
//
// Records never span segments. A record that fails its length bound, CRC or
// is cut short marks the end of trustworthy data: on the newest segment the
// file is truncated there (a torn tail from a crash mid-append), on older
// segments the remainder is skipped (bit rot cannot fabricate a valid CRC,
// so everything before the damage is still served).
const (
	segMagic      = 0x53434A4C // "SCJL"
	segVersion    = 1
	segHeaderSize = 16
	recPrefixSize = 8
	// maxRecordBytes bounds one record body, both at write time (larger
	// frames stay mirror-only) and at recovery (a corrupt length cannot
	// drive a huge allocation).
	maxRecordBytes = 64 << 20
)

// segPath names segment i inside the journal directory.
func (j *Journal) segPath(i uint64) string {
	return filepath.Join(j.opts.Dir, fmt.Sprintf("journal-%08d.seg", i))
}

// appendRecord appends the on-disk framing of one record to dst.
func appendRecord(dst []byte, class byte, frame []byte) []byte {
	var pre [recPrefixSize]byte
	binary.BigEndian.PutUint32(pre[0:4], uint32(1+len(frame)))
	binary.BigEndian.PutUint32(pre[4:8], crcRecord(class, frame))
	dst = append(dst, pre[:]...)
	dst = append(dst, class)
	return append(dst, frame...)
}

// rotateLocked seals the active segment and opens the next one. Seal
// failures count like every other write failure — the sealed tail may be
// lost on disk while the mirror keeps serving it. Caller holds iomu.
func (j *Journal) rotateLocked() error {
	if j.seg != nil {
		if j.opts.Fsync {
			if err := j.seg.Sync(); err != nil {
				j.writeErrs.Add(1)
			}
		}
		j.seg.Close()
		j.seg = nil
	}
	next := j.segIndex + 1
	f, err := os.OpenFile(j.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	j.seg = f
	j.segIndex = next
	j.segSize = segHeaderSize
	j.segments = append(j.segments, next)
	if j.opts.Fsync {
		// fsync(file) alone does not persist the new directory entry on
		// every filesystem; durability mode pays for the dir sync too.
		j.syncDir()
	}
	return nil
}

// syncDir makes directory-entry changes (segment creates and deletes)
// durable. Only called in Fsync mode.
func (j *Journal) syncDir() {
	d, err := os.Open(j.opts.Dir)
	if err != nil {
		j.writeErrs.Add(1)
		return
	}
	if err := d.Sync(); err != nil {
		j.writeErrs.Add(1)
	}
	d.Close()
}

// writeBlobLocked writes one batch of framed records to the active
// segment, rotating first when it is full (a batch always lands whole in
// one segment — records never span). Caller holds iomu.
func (j *Journal) writeBlobLocked(blob []byte) {
	if j.ioClosed {
		// A sweep that grabbed its batch just before Close must not write
		// — let alone rotate a fresh segment file into — a directory whose
		// lock Close already released.
		return
	}
	if j.seg == nil || j.segSize >= int64(j.opts.SegmentBytes) {
		if err := j.rotateLocked(); err != nil {
			j.writeErrs.Add(1)
			return
		}
	}
	if _, err := j.seg.Write(blob); err != nil {
		j.writeErrs.Add(1)
		return
	}
	j.segSize += int64(len(blob))
	if j.opts.Fsync {
		if err := j.seg.Sync(); err != nil {
			j.writeErrs.Add(1)
		}
	}
}

// scanResult is one segment's recovery verdict.
type scanResult struct {
	headerOK bool
	records  []record
	// goodSize is the offset just past the last valid record.
	goodSize int64
	// damaged reports invalid data after goodSize (torn tail or bit rot).
	damaged bool
	// openReset is the offset of a trailing reset barrier whose commit
	// never appeared — a torn compaction fold; -1 when none. On the
	// appendable segment the file must be cut back to it, or frames
	// appended after the orphan barrier would be discarded as fold debris
	// by the next recovery.
	openReset int64
}

// scanSegment reads every CRC-valid record from the start of a segment. A
// declared body length is checked against the bytes left in the file
// before it sizes anything, bodies are read into one reused buffer, and the
// frames are copied into an arena: a hostile or torn length prefix cannot
// drive a large allocation, and a recovered record costs no allocation of
// its own.
func scanSegment(path string) (scanResult, error) {
	res := scanResult{openReset: -1}
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var body []byte
	var mem arena

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		res.damaged = true
		return res, nil
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != segMagic || binary.BigEndian.Uint32(hdr[4:8]) != segVersion {
		res.damaged = true
		return res, nil
	}
	res.headerOK = true
	res.goodSize = segHeaderSize

	for {
		var pre [recPrefixSize]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			if err != io.EOF {
				res.damaged = true
			}
			return res, nil
		}
		n := binary.BigEndian.Uint32(pre[0:4])
		crc := binary.BigEndian.Uint32(pre[4:8])
		left := fi.Size() - res.goodSize - recPrefixSize
		if n < 1 || n > maxRecordBytes || int64(n) > left {
			res.damaged = true
			return res, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			res.damaged = true
			return res, nil
		}
		if crc32.ChecksumIEEE(body) != crc {
			res.damaged = true
			return res, nil
		}
		switch body[0] {
		case recReset:
			res.openReset = res.goodSize
		case recCommit:
			res.openReset = -1
		}
		frame, _ := mem.copy(body[1:])
		res.records = append(res.records, record{class: body[0], frame: frame})
		res.goodSize += int64(recPrefixSize) + int64(n)
	}
}

// recoverDir scans the journal directory, rebuilds the mirror and prepares
// the active segment for appending. Runs single-threaded from Open.
func (j *Journal) recoverDir() error {
	entries, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var indices []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })

	appendable := false // last segment healthy enough to keep appending to
	for k, idx := range indices {
		last := k == len(indices)-1
		res, err := scanSegment(j.segPath(idx))
		if err != nil {
			return fmt.Errorf("journal: recover segment %d: %w", idx, err)
		}
		// Every found file stays in the live list so a later compaction
		// deletes it, trustworthy or not.
		j.segments = append(j.segments, idx)
		if !res.headerOK {
			// Unreadable header: nothing in this segment is trustworthy.
			j.stats.SkippedSegments++
			continue
		}
		// A compaction fold is one blob inside one segment: reset barrier,
		// fold records, commit. The barrier supersedes everything scanned
		// so far only when its commit proves the fold is whole; a torn
		// fold (reset, no commit) is discarded and the pre-fold history
		// stands.
		var foldBuf []record
		inFold := false
		for _, r := range res.records {
			switch r.class {
			case recReset:
				inFold = true
				foldBuf = foldBuf[:0]
			case recCommit:
				if inFold {
					j.recs = foldBuf
					foldBuf = nil
					inFold = false
				}
			default:
				if inFold {
					foldBuf = append(foldBuf, r)
				} else {
					j.recs = append(j.recs, r)
				}
			}
		}
		j.stats.RecoveredRecords += len(res.records)
		if res.damaged && !last {
			// Mid-log corruption: the rest of this segment is lost,
			// later segments are still valid.
			j.stats.SkippedSegments++
			continue
		}
		if last {
			// The newest segment is about to take appends; cut away
			// anything appends must not follow: a torn tail from a crash
			// mid-append (goodSize), or an orphan reset barrier from a
			// torn compaction fold — new frames written after it would be
			// discarded as commit-less fold debris by the next recovery.
			cut := int64(-1)
			if res.damaged {
				cut = res.goodSize
			}
			if res.openReset >= 0 {
				cut = res.openReset
			}
			if cut >= 0 {
				if fi, err := os.Stat(j.segPath(idx)); err == nil {
					j.stats.TruncatedBytes += fi.Size() - cut
				}
				if err := os.Truncate(j.segPath(idx), cut); err != nil {
					return fmt.Errorf("journal: truncate torn tail: %w", err)
				}
				res.goodSize = cut
			}
			j.segIndex = idx
			j.segSize = res.goodSize
			appendable = true
		}
	}
	if len(indices) > 0 && j.segIndex < indices[len(indices)-1] {
		// The newest segment was skipped whole; never reuse its index.
		j.segIndex = indices[len(indices)-1]
	}
	for _, r := range j.recs {
		j.mirBytes += len(r.frame)
	}

	if appendable && j.segSize < int64(j.opts.SegmentBytes) {
		f, err := os.OpenFile(j.segPath(j.segIndex), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: reopen active segment: %w", err)
		}
		j.seg = f
		return nil
	}
	return j.rotateLocked()
}
