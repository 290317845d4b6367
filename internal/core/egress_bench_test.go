// BenchmarkEgressWritev measures the two shapes of the one egress path over
// a real loopback TCP connection with a draining peer: "vectored" is the
// writev batch, and "buffered" wraps the same socket so it probes as a
// conn without writev, where the whole batch is gathered (copied) into one
// Write. A real socket matters: the trade is writev's zero-copy iovec
// against one memcpy of the batch, and a discard conn would hide the
// syscall cost on both sides. The leg names match BENCH_9.json's keys.
package core

import (
	"fmt"
	"net"
	"testing"
)

// benchTCPPair returns a loopback TCP client conn whose peer drains
// everything it receives; both ends close with the benchmark.
func benchTCPPair(b *testing.B) net.Conn {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		b.Fatal(err)
	}
	r := <-ch
	l.Close()
	if r.err != nil {
		client.Close()
		b.Fatal(r.err)
	}
	// Drain with one large-buffer Read loop, not io.Copy(io.Discard, …):
	// io.Discard's ReadFrom pulls small chunks, and a slow peer puts the
	// same drain-rate floor under both paths, hiding the writev win.
	go func() {
		buf := make([]byte, 1<<20)
		for {
			if _, err := r.c.Read(buf); err != nil {
				return
			}
		}
	}()
	b.Cleanup(func() {
		client.Close()
		r.c.Close()
	})
	return client
}

func egressBatch(frames, size int) ([][]byte, int64) {
	batch := make([][]byte, frames)
	total := int64(0)
	for i := range batch {
		batch[i] = make([]byte, size)
		for j := range batch[i] {
			batch[i][j] = byte(i + j)
		}
		total += int64(size)
	}
	return batch, total
}

// The three batch shapes ISSUE 9 gates on: all-small (pure coalesce), mixed
// (both hybrid branches in one batch), and bulk 64KB payloads (pure
// zero-copy, 8 frames ≥ the acceptance floor's batch size).
func egressShapes() []struct {
	name  string
	batch [][]byte
	bytes int64
} {
	small, smallN := egressBatch(16, 256)
	mixedSmall, a := egressBatch(8, 256)
	mixedLarge, bb := egressBatch(8, 8<<10)
	mixed := append(append([][]byte{}, mixedSmall...), mixedLarge...)
	payload, payloadN := egressBatch(8, 64<<10)
	return []struct {
		name  string
		batch [][]byte
		bytes int64
	}{
		{"small", small, smallN},
		{"mixed", mixed, a + bb},
		{"payload64k", payload, payloadN},
	}
}

func BenchmarkEgressWritev(b *testing.B) {
	for _, shape := range egressShapes() {
		for _, path := range []string{"vectored", "buffered"} {
			b.Run(fmt.Sprintf("%s/%s", shape.name, path), func(b *testing.B) {
				var conn net.Conn = benchTCPPair(b)
				if path == "buffered" {
					conn = opaqueConn{conn} // hide writev on the same socket
				}
				c := newCodec(conn)
				if (c.coalesce == gatherAll) != (path == "buffered") {
					b.Fatalf("%s leg probed coalesce=%d", path, c.coalesce)
				}
				b.SetBytes(shape.bytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.writeBatch(shape.batch, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
