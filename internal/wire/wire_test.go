package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg Message, fresh func() Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatalf("write %T: %v", msg, err)
	}
	r := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatalf("read %T: %v", msg, err)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		&Hello{From: 3},
		&HelloAck{From: 7, LastSeq: 1 << 40},
		&Data{Seq: 99, SentUnixNano: 123456789, Payload: []byte("payload")},
		&Data{Seq: 1, Payload: nil},
		&Ack{Origin: 1, By: 5, Type: 16, Seq: 77},
		&Heartbeat{Clock: 8},
		&App{ID: 12, Method: 0x5152, IsResponse: true, From: 2, Payload: []byte{0, 1, 2}},
		&App{ID: 0, Method: 1, IsResponse: false, From: 8, Payload: []byte{}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m, nil)
		if got.Kind() != m.Kind() {
			t.Fatalf("kind mismatch: sent %v got %v", m.Kind(), got.Kind())
		}
		// Normalize empty-vs-nil payloads before deep comparison.
		normalize := func(msg Message) {
			switch v := msg.(type) {
			case *Data:
				if len(v.Payload) == 0 {
					v.Payload = nil
				}
			case *App:
				if len(v.Payload) == 0 {
					v.Payload = nil
				}
			}
		}
		normalize(m)
		normalize(got)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\nsent %#v\ngot  %#v", m, got)
		}
	}
}

func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	const n = 100
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, &Data{Seq: uint64(i + 1), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < n; i++ {
		msg, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		d, ok := msg.(*Data)
		if !ok || d.Seq != uint64(i+1) {
			t.Fatalf("frame %d: got %#v", i, msg)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream: err = %v, want EOF", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	full := AppendFrame(nil, &Data{Seq: 5, Payload: bytes.Repeat([]byte{7}, 100)})
	for cut := 1; cut < len(full); cut += 17 {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.Next(); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

// TestUnknownKindRejected covers a kind that never existed and the retired
// one: kind 7 was a heartbeat echo (a clock, like kind 5) until the echo
// became the Heartbeat frame itself, and a peer still sending it is input to
// refuse, not decode. The kinds are wire contract: six, ending at KindApp.
func TestUnknownKindRejected(t *testing.T) {
	if KindApp != 6 {
		t.Fatalf("KindApp = %d: kinds must not renumber", KindApp)
	}
	for _, frame := range [][]byte{
		{0, 0, 0, 2, 0xEE, 0x01},
		append([]byte{0, 0, 0, 9, byte(KindApp) + 1}, make([]byte, 8)...),
	} {
		r := NewReader(bytes.NewReader(frame))
		if _, err := r.Next(); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("kind %d: err = %v, want ErrUnknownKind", frame[4], err)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestZeroLengthFrameRejected(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, err := r.Next(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// A Heartbeat body is exactly 8 bytes; add one extra.
	body := append([]byte{byte(KindHeartbeat)}, make([]byte, 9)...)
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.Next(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

// TestQuickDataRoundTrip property-checks the Data codec.
func TestQuickDataRoundTrip(t *testing.T) {
	f := func(seq uint64, nano int64, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Data{Seq: seq, SentUnixNano: nano, Payload: payload}); err != nil {
			return false
		}
		msg, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		d, ok := msg.(*Data)
		return ok && d.Seq == seq && d.SentUnixNano == nano && bytes.Equal(d.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAckRoundTrip property-checks the Ack codec.
func TestQuickAckRoundTrip(t *testing.T) {
	f := func(origin, by, typ uint16, seq uint64) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Ack{Origin: origin, By: by, Type: typ, Seq: seq}); err != nil {
			return false
		}
		msg, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		a, ok := msg.(*Ack)
		return ok && a.Origin == origin && a.By == by && a.Type == typ && a.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecoderNeverPanics feeds random bytes to the frame decoder.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		r := NewReader(bytes.NewReader(junk))
		for {
			if _, err := r.Next(); err != nil {
				return true // any error is fine; panics are not
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderScratchReuse pins the Reader's zero-alloc contract: hot-path
// kinds decode into Reader-owned scratch structs (same pointer every call),
// each valid, payload included, until the following Next.
func TestReaderScratchReuse(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Data{Seq: 1, Payload: []byte("first")})
	_ = WriteFrame(&buf, &Ack{Origin: 1, By: 2, Type: 3, Seq: 10})
	_ = WriteFrame(&buf, &Data{Seq: 2, Payload: []byte("second")})
	_ = WriteFrame(&buf, &Heartbeat{Clock: 4})
	r := NewReader(&buf)

	m1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	d1 := m1.(*Data)
	if d1.Seq != 1 || string(d1.Payload) != "first" {
		t.Fatalf("first Data = %+v", d1)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	m3, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	d3 := m3.(*Data)
	if d1 != d3 {
		t.Fatal("Data frames decoded into distinct structs; want reused scratch")
	}
	if d3.Seq != 2 || string(d3.Payload) != "second" {
		t.Fatalf("second Data = %+v", d3)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBufferShrinksAfterOversizeFrame checks one giant frame does not
// keep its chunk once normal-sized frames resume: a Data frame and an App
// frame (whose payload is copied) alike.
func TestReaderBufferShrinksAfterOversizeFrame(t *testing.T) {
	big := make([]byte, 2<<20)
	for _, first := range []Message{&Data{Seq: 1, Payload: big}, &App{ID: 1, Payload: big}} {
		var buf bytes.Buffer
		_ = WriteFrame(&buf, first)
		_ = WriteFrame(&buf, &Data{Seq: 2, Payload: []byte("small")})
		_ = WriteFrame(&buf, &Data{Seq: 3, Payload: []byte("again")})
		r := NewReader(&buf)
		if _, err := r.Next(); err != nil {
			t.Fatalf("%v frame: %v", first.Kind(), err)
		}
		if want := len(AppendFrame(nil, first)); len(r.buf) != want {
			t.Fatalf("%v frame: chunk %d bytes, want exactly the frame's %d", first.Kind(), len(r.buf), want)
		}
		for i := 2; i <= 3; i++ {
			m, err := r.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if d := m.(*Data); d.Seq != uint64(i) {
				t.Fatalf("frame %d: seq %d", i, d.Seq)
			}
		}
		if len(r.buf) != readChunk {
			t.Fatalf("after an oversize %v frame the chunk is %d bytes, want readChunk %d", first.Kind(), len(r.buf), readChunk)
		}
	}
}

// TestReaderPayloadsSurviveChunkMoves streams 8 read chunks of 1–9 KiB Data
// frames with an ACK after every seventh, replayed under seeded random read
// cuts: each fill moves the undecoded tail to the front of the one chunk, and
// every payload of a buffered run still reads byte for byte before the
// following Next.
func TestReaderPayloadsSurviveChunkMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var want []Message
	for seq, n := uint64(1), 0; n < 8*readChunk; seq++ {
		p := make([]byte, 1<<10+rng.Intn(8<<10))
		rng.Read(p)
		want = append(want, &Data{Seq: seq, SentUnixNano: int64(seq), Payload: p})
		n += DataFrameOverhead + len(p)
		if seq%7 == 0 {
			want = append(want, &Ack{Origin: 1, By: 2, Type: 3, Seq: seq})
		}
	}
	readInOneChunk(t, rng, want)
}

// TestReaderReusesUnlentChunk streams 3 read chunks of ACKs and heartbeats,
// which carry no payload, behind one 13-byte frame so they straddle chunk
// ends, replayed under seeded random read cuts.
func TestReaderReusesUnlentChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	want := []Message{&Heartbeat{Clock: 1}}
	for seq := uint64(1); len(want) < 3*readChunk/16; seq++ {
		want = append(want, &Ack{Origin: 1, By: 2, Type: 3, Seq: seq}, &Heartbeat{Clock: seq})
	}
	readInOneChunk(t, rng, want)
}

// readInOneChunk pins the one read chunk: it replays want's frames under 64
// seeded random read cuts of 1 B–20 KiB and checks that every frame, and every
// payload of its buffered run, decodes byte for byte before the following
// Next, that 10 000 frames allocate nothing, and that the chunk is never
// replaced.
func readInOneChunk(t *testing.T, rng *rand.Rand, want []Message) {
	t.Helper()
	var stream []byte
	for _, m := range want {
		stream = AppendFrame(stream, m)
	}
	src := &repeatReader{data: stream}
	for range 64 {
		src.cuts = append(src.cuts, 1+rng.Intn(20<<10))
	}
	r := NewReader(src)
	chunk := &r.buf[0]
	i := 0
	check := func(got Message) {
		switch want := want[i%len(want)].(type) {
		case *Data:
			g, ok := got.(*Data)
			if !ok || g.Seq != want.Seq || g.SentUnixNano != want.SentUnixNano || !bytes.Equal(g.Payload, want.Payload) {
				t.Fatalf("frame %d is not Data seq %d (%d bytes) before the following Next", i, want.Seq, len(want.Payload))
			}
		case *Ack:
			if g, ok := got.(*Ack); !ok || *g != *want {
				t.Fatalf("frame %d is not Ack seq %d", i, want.Seq)
			}
		case *Heartbeat:
			if g, ok := got.(*Heartbeat); !ok || *g != *want {
				t.Fatalf("frame %d is not Heartbeat clock %d", i, want.Clock)
			}
		}
		i++
	}
	run := make([]Data, 0, 3)
	allocs := testing.AllocsPerRun(10, func() {
		for start := i; i-start < 1000; {
			m, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			d, ok := m.(*Data)
			if !ok {
				check(m)
				continue
			}
			run = r.AppendBufferedData(append(run[:0], *d), cap(run))
			for j := range run {
				check(&run[j])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocs per 1 000 frames, want 0", allocs)
	}
	if &r.buf[0] != chunk {
		t.Fatal("the read chunk was replaced instead of reused")
	}
	if i < 10000+1000 {
		t.Fatalf("only %d frames decoded", i)
	}
}

// TestAppendingToPayloadKeepsNextFrame: a delivered payload has no spare
// capacity, so a consumer appending to it during its upcall gets its own copy
// and never writes into the frame behind it in the chunk — on Next's path and
// on AppendBufferedData's.
func TestAppendingToPayloadKeepsNextFrame(t *testing.T) {
	var stream []byte
	for seq := uint64(1); seq <= 4; seq++ {
		stream = AppendFrame(stream, &Data{Seq: seq, Payload: []byte{byte(seq), byte(seq)}})
	}
	r := NewReader(bytes.NewReader(stream))
	m, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := m.(*Data).Payload
	if cap(first) != len(first) {
		t.Fatalf("payload cap %d > len %d: appends would run into the next frame", cap(first), len(first))
	}
	_ = append(first, bytes.Repeat([]byte{0xEE}, 64)...)
	run := r.AppendBufferedData(nil, 2)
	if len(run) != 2 {
		t.Fatalf("buffered run of %d frames after an append to the first payload, want 2", len(run))
	}
	_ = append(run[0].Payload, bytes.Repeat([]byte{0xEE}, 64)...)
	_ = append(run[1].Payload, bytes.Repeat([]byte{0xEE}, 64)...)
	for i, p := range [][]byte{first, run[0].Payload, run[1].Payload} {
		if want := []byte{byte(i + 1), byte(i + 1)}; !bytes.Equal(p, want) {
			t.Fatalf("payload %d = %x after an append to its neighbour, want %x", i+1, p, want)
		}
	}
	m, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p := m.(*Data).Payload; !bytes.Equal(p, []byte{4, 4}) {
		t.Fatalf("payload 4 = %x after an append to its neighbour, want 0404", p)
	}
}

// TestAppendDataFrameMatchesAppendFrame pins the send log's invariant: the
// frame it builds once, sequenced afterwards by PutDataSeq, is byte-identical
// to AppendFrame's output, and DecodeDataFrame reads back exactly that frame
// and nothing short of it.
func TestAppendDataFrameMatchesAppendFrame(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		d := &Data{Seq: 1 << 33, SentUnixNano: -7, Payload: p}
		whole := AppendFrame(nil, d)
		frame := AppendDataFrame(nil, 0, d.SentUnixNano, p)
		PutDataSeq(frame, d.Seq)
		if len(frame) != DataFrameOverhead+len(p) {
			t.Fatalf("frame length %d, want DataFrameOverhead+%d", len(frame), len(p))
		}
		if !bytes.Equal(whole, frame) {
			t.Fatalf("payload len %d: AppendDataFrame differs from AppendFrame:\n%x\nvs\n%x", len(p), frame, whole)
		}
		var got Data
		if n := DecodeDataFrame(append(frame, 0xEE), &got); n != len(frame) {
			t.Fatalf("payload len %d: DecodeDataFrame = %d, want %d", len(p), n, len(frame))
		}
		if got.Seq != d.Seq || got.SentUnixNano != d.SentUnixNano || !bytes.Equal(got.Payload, p) || cap(got.Payload) != len(p) {
			t.Fatalf("payload len %d: decoded %+v (cap %d)", len(p), got, cap(got.Payload))
		}
		if n := DecodeDataFrame(frame[:len(frame)-1], &got); n != 0 {
			t.Fatalf("payload len %d: a frame one byte short decoded as %d bytes", len(p), n)
		}
	}
	if n := DecodeDataFrame(AppendFrame(nil, &App{ID: 1, Payload: make([]byte, 32)}), &Data{}); n != 0 {
		t.Fatalf("an App frame decoded as a %d-byte Data frame", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindHello; k <= KindApp; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind string = %q", Kind(200).String())
	}
}

// chunkReader hands out its chunks one Read at a time, so a test controls
// exactly which bytes are buffered when.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// FuzzReaderCuts reads an arbitrary byte stream under an arbitrary cut
// pattern (each byte of cuts is one Read's length, less one, cycled) and
// holds it to a one-shot read of the same stream: the same frames, payloads
// as they read before the following Next, the same stopping error and no
// panic. The stream is part repeated 1+copies times, so an input small
// enough to fuzz quickly still spans several read chunks.
func FuzzReaderCuts(f *testing.F) {
	seed := AppendFrame(nil, &Hello{From: 2})
	seed = AppendFrame(seed, &Data{Seq: 1, SentUnixNano: 5, Payload: bytes.Repeat([]byte{0xA5}, 300)})
	seed = AppendFrame(seed, &Data{Seq: 2})
	seed = AppendFrame(seed, &Ack{Origin: 1, By: 2, Type: 3, Seq: 2})
	seed = AppendFrame(seed, &App{ID: 4, Method: 1, From: 2, Payload: []byte("app")})
	seed = AppendFrame(seed, &Heartbeat{Clock: 9})
	f.Add(seed, []byte{0, 6, 200, 3}, uint8(255))
	f.Add(AppendFrame(seed, &Data{Seq: 3, Payload: make([]byte, 500)})[:len(seed)+300], []byte{255}, uint8(1))
	f.Add([]byte{0, 0, 0, 0}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, part, cuts []byte, copies uint8) {
		stream := bytes.Repeat(part, 1+int(copies))
		for off := 0; off+4 <= len(stream); {
			n := int(binary.BigEndian.Uint32(stream[off:]))
			if n > 1<<20 && n <= MaxFrameSize {
				return // a header claiming megabytes only costs an allocation
			}
			off += 4 + n
		}
		want, wantErr := drainFrames(NewReader(bytes.NewReader(stream)), false)
		cr := &chunkReader{}
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			cr.chunks, rest = append(cr.chunks, rest[:n]), rest[n:]
		}
		got, gotErr := drainFrames(NewReader(cr), true)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("cut read stopped with %v, one-shot read with %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut read decoded %d frames unlike the one-shot read's %d:\n%#v\nvs\n%#v", len(got), len(want), got, want)
		}
	})
}

// drainFrames decodes r up to its first error, copying each scratch struct
// and each payload out the moment it is decoded, before the following Next
// may reuse the chunk under it. A cut read takes Data a buffered run at a
// time.
func drainFrames(r *Reader, cut bool) ([]Message, error) {
	var out []Message
	var run []Data
	for {
		m, err := r.Next()
		if err != nil {
			return out, err
		}
		switch m := m.(type) {
		case *Data:
			run = append(run[:0], *m)
			if cut {
				run = r.AppendBufferedData(run, 4)
			}
			for _, d := range run {
				d.Payload = bytes.Clone(d.Payload)
				out = append(out, &d)
			}
		case *Ack:
			a := *m
			out = append(out, &a)
		case *Heartbeat:
			hb := *m
			out = append(out, &hb)
		default: // Hello, HelloAck and App are fresh per frame
			out = append(out, m)
		}
	}
}

// TestAppendBufferedData pins the run decoder's three stops — a non-Data
// frame, the end of the buffered bytes (mid-frame included) and the cap —
// and that it never reads the stream: what stopped it is the next Next.
func TestAppendBufferedData(t *testing.T) {
	data := func(first, last uint64) []byte {
		var b []byte
		for s := first; s <= last; s++ {
			b = AppendFrame(b, &Data{Seq: s, SentUnixNano: int64(s), Payload: []byte{byte(s), 0xAB}})
		}
		return b
	}
	first := append(data(1, 5), AppendFrame(nil, &Ack{Origin: 1, By: 2, Type: 1, Seq: 9})...)
	first = append(first, data(6, 9)...)
	torn := data(10, 10)
	first = append(first, torn[:7]...) // frame 10 straddles the two reads
	r := NewReader(&chunkReader{chunks: [][]byte{first, torn[7:]}})

	next := func() Message {
		t.Helper()
		m, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seqs := func(run []Data) (out []uint64) {
		for _, d := range run {
			if len(d.Payload) != 2 || d.Payload[0] != byte(d.Seq) || d.SentUnixNano != int64(d.Seq) {
				t.Fatalf("frame %d decoded as %+v", d.Seq, d)
			}
			out = append(out, d.Seq)
		}
		return out
	}

	run := r.AppendBufferedData([]Data{*next().(*Data)}, 3)
	if got := seqs(run); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("capped run = %v, want [1 2 3]", got)
	}
	run = r.AppendBufferedData(run[:0], 100)
	if got := seqs(run); !reflect.DeepEqual(got, []uint64{4, 5}) {
		t.Fatalf("run before the ack = %v, want [4 5]", got)
	}
	if a, ok := next().(*Ack); !ok || a.Seq != 9 {
		t.Fatalf("frame after the run is not the ack")
	}
	run = r.AppendBufferedData(run[:0], 100)
	if got := seqs(run); !reflect.DeepEqual(got, []uint64{6, 7, 8, 9}) {
		t.Fatalf("run before the torn frame = %v, want [6 7 8 9]", got)
	}
	if d := next().(*Data); d.Seq != 10 {
		t.Fatalf("torn frame decoded as seq %d, want 10", d.Seq)
	}
	if run = r.AppendBufferedData(run[:0], 100); len(run) != 0 {
		t.Fatalf("empty buffer yielded %d frames", len(run))
	}
}
