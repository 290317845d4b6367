package wire

import (
	"encoding/binary"
	"io"
	"math"
)

// Append-style frame builders: each appends one complete message (header +
// payload) to buf and returns the extended slice. They are the zero-copy
// building blocks for composite codecs that assemble several frames into one
// buffer and hand the same bytes to many receivers (encode-once fan-out).
// The builders do not enforce size limits — encoders own their payloads;
// decode-side Limits are what protect receivers from hostile peers.

// AppendHeader appends a frame header for count elements of the kind.
func AppendHeader(buf []byte, tag uint32, kind Kind, count int) []byte {
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, tag)
	buf = append(buf, byte(kind), 0, 0, 0)
	return binary.BigEndian.AppendUint32(buf, uint32(count))
}

// AppendInt32s appends an int32-array message.
func AppendInt32s(buf []byte, tag uint32, v []int32) []byte {
	buf = AppendHeader(buf, tag, KindInt32, len(v))
	for _, x := range v {
		buf = binary.BigEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// AppendInt64s appends an int64-array message.
func AppendInt64s(buf []byte, tag uint32, v []int64) []byte {
	buf = AppendHeader(buf, tag, KindInt64, len(v))
	for _, x := range v {
		buf = binary.BigEndian.AppendUint64(buf, uint64(x))
	}
	return buf
}

// AppendFloat32s appends a float32-array message.
func AppendFloat32s(buf []byte, tag uint32, v []float32) []byte {
	buf = AppendHeader(buf, tag, KindFloat32, len(v))
	for _, x := range v {
		buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return buf
}

// AppendFloat64s appends a float64-array message.
func AppendFloat64s(buf []byte, tag uint32, v []float64) []byte {
	buf = AppendHeader(buf, tag, KindFloat64, len(v))
	for _, x := range v {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// AppendFloat64 appends the value to an already-open float64 frame whose
// header was written by AppendHeader; the caller is responsible for the
// header's count matching the number of appended elements.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendStrings appends a string-array message.
func AppendStrings(buf []byte, tag uint32, v []string) []byte {
	buf = AppendHeader(buf, tag, KindString, len(v))
	for _, s := range v {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// AppendBytes appends a single byte-blob message.
func AppendBytes(buf []byte, tag uint32, b []byte) []byte {
	buf = AppendHeader(buf, tag, KindBytes, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	buf = append(buf, b...)
	return buf
}

// AppendBools appends a bool-array message (one byte per element).
func AppendBools(buf []byte, tag uint32, v []bool) []byte {
	buf = AppendHeader(buf, tag, KindBool, len(v))
	for _, x := range v {
		b := byte(0)
		if x {
			b = 1
		}
		buf = append(buf, b)
	}
	return buf
}

// CountFrames returns the number of frames in buf, which must hold whole
// frames as the Append builders write them. It reads back only the fixed
// headers and the length prefixes of string and bytes elements, so a codec
// can append a variable set of frames and count them afterwards.
func CountFrames(buf []byte) int {
	n := 0
	for ; len(buf) >= headerSize; n++ {
		kind, count := Kind(buf[8]), int(binary.BigEndian.Uint32(buf[12:headerSize]))
		buf = buf[headerSize:]
		if size := kind.size(); size > 0 {
			buf = buf[size*count:]
			continue
		}
		for ; count > 0; count-- {
			buf = buf[4+int(binary.BigEndian.Uint32(buf)):]
		}
	}
	return n
}

// An Encoder writes messages to an output stream. It buffers one message at
// a time and is not safe for concurrent use; wrap writes in the caller's own
// synchronisation when a connection is shared.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, 4096)}
}

func (e *Encoder) flush() error {
	n, err := e.w.Write(e.buf)
	if err == nil && n != len(e.buf) {
		err = ErrShortWrite
	}
	e.buf = e.buf[:0]
	return err
}

// Int32s writes an int32-array message.
func (e *Encoder) Int32s(tag uint32, v []int32) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	e.buf = AppendInt32s(e.buf, tag, v)
	return e.flush()
}

// Int64s writes an int64-array message.
func (e *Encoder) Int64s(tag uint32, v []int64) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	e.buf = AppendInt64s(e.buf, tag, v)
	return e.flush()
}

// Float32s writes a float32-array message.
func (e *Encoder) Float32s(tag uint32, v []float32) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	e.buf = AppendFloat32s(e.buf, tag, v)
	return e.flush()
}

// Float64s writes a float64-array message.
func (e *Encoder) Float64s(tag uint32, v []float64) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	e.buf = AppendFloat64s(e.buf, tag, v)
	return e.flush()
}

// String writes a single-string message.
func (e *Encoder) String(tag uint32, s string) error { return e.Strings(tag, []string{s}) }

// Strings writes a string-array message.
func (e *Encoder) Strings(tag uint32, v []string) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	for _, s := range v {
		if len(s) > MaxBlobLen {
			return ErrTooLarge
		}
	}
	e.buf = AppendStrings(e.buf, tag, v)
	return e.flush()
}

// Bytes writes a single byte-blob message.
func (e *Encoder) Bytes(tag uint32, b []byte) error {
	if len(b) > MaxBlobLen {
		return ErrTooLarge
	}
	e.buf = AppendBytes(e.buf, tag, b)
	return e.flush()
}

// Bools writes a bool-array message.
func (e *Encoder) Bools(tag uint32, v []bool) error {
	if len(v) > MaxElements {
		return ErrTooLarge
	}
	e.buf = AppendBools(e.buf, tag, v)
	return e.flush()
}

// Int writes a single int64 message; the idiomatic way to send one scalar.
func (e *Encoder) Int(tag uint32, v int64) error { return e.Int64s(tag, []int64{v}) }

// Float writes a single float64 message.
func (e *Encoder) Float(tag uint32, v float64) error { return e.Float64s(tag, []float64{v}) }

// Message writes an already-assembled Message, re-encoding its payload.
func (e *Encoder) Message(m *Message) error {
	switch m.Header.Kind {
	case KindInt32:
		return e.Int32s(m.Header.Tag, m.Int32s)
	case KindInt64:
		return e.Int64s(m.Header.Tag, m.Int64s)
	case KindFloat32:
		return e.Float32s(m.Header.Tag, m.Float32s)
	case KindFloat64:
		return e.Float64s(m.Header.Tag, m.Float64s)
	case KindString:
		return e.Strings(m.Header.Tag, m.Strings)
	case KindBool:
		return e.Bools(m.Header.Tag, m.Bools)
	case KindBytes:
		if len(m.Blobs) > MaxElements {
			return ErrTooLarge
		}
		for _, b := range m.Blobs {
			if len(b) > MaxBlobLen {
				return ErrTooLarge
			}
		}
		e.buf = AppendHeader(e.buf, m.Header.Tag, KindBytes, len(m.Blobs))
		for _, b := range m.Blobs {
			e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
			e.buf = append(e.buf, b...)
		}
		return e.flush()
	default:
		return ErrBadKind
	}
}
