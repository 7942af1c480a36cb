package wire

import (
	"testing"
)

// repeatReader replays data forever with no per-Read allocation, so decode
// benchmarks measure the Reader alone. A Read stops at the end of data and,
// when cuts is set, after the next of its lengths (cycled), so a test decides
// where reads end.
type repeatReader struct {
	data   []byte
	cuts   []int
	off, n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.cuts) > 0 {
		p = p[:min(len(p), r.cuts[r.n%len(r.cuts)])]
		r.n++
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off == len(r.data) {
		r.off = 0
	}
	return n, nil
}

func benchmarkEncode(b *testing.B, msg Message) {
	b.Helper()
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = AppendFrame(frame[:0], msg)
	}
	b.SetBytes(int64(len(frame)))
}

func benchmarkDecode(b *testing.B, msg Message) {
	b.Helper()
	frame := AppendFrame(nil, msg)
	r := NewReader(&repeatReader{data: frame})
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeData1K(b *testing.B) {
	benchmarkEncode(b, &Data{Seq: 42, SentUnixNano: 1700000000, Payload: make([]byte, 1024)})
}

func BenchmarkEncodeAck(b *testing.B) {
	benchmarkEncode(b, &Ack{Origin: 1, By: 2, Type: 3, Seq: 99})
}

func BenchmarkDecodeData1K(b *testing.B) {
	benchmarkDecode(b, &Data{Seq: 42, SentUnixNano: 1700000000, Payload: make([]byte, 1024)})
}

// BenchmarkDecodeData8K decodes the paper's payload, the 8 KiB backup chunk
// (§VI-B): the one read chunk is reused, and the frame that straddles its
// end moves to its front.
func BenchmarkDecodeData8K(b *testing.B) {
	benchmarkDecode(b, &Data{Seq: 42, SentUnixNano: 1700000000, Payload: make([]byte, 8<<10)})
}

func BenchmarkDecodeData64(b *testing.B) {
	benchmarkDecode(b, &Data{Seq: 42, SentUnixNano: 1700000000, Payload: make([]byte, 64)})
}

func BenchmarkDecodeAck(b *testing.B) {
	benchmarkDecode(b, &Ack{Origin: 1, By: 2, Type: 3, Seq: 99})
}

func BenchmarkDecodeHeartbeat(b *testing.B) {
	benchmarkDecode(b, &Heartbeat{Clock: 7})
}
