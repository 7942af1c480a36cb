// Package wire defines Stabilizer's binary wire protocol: length-prefixed
// frames carrying one of a small set of message kinds. The protocol is
// deliberately minimal — every message is a separately sequenced object and
// the transport layer guarantees lossless FIFO delivery per link, so no
// per-message negotiation is needed (paper §III-A).
//
// Frame layout:
//
//	uint32   big-endian body length (kind byte + payload)
//	uint8    kind
//	[]byte   kind-specific payload
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind identifies the message type carried by a frame.
type Kind uint8

// Message kinds. Values are part of the wire contract; do not renumber.
const (
	KindHello Kind = iota + 1
	KindHelloAck
	KindData
	KindAck
	KindHeartbeat
	KindApp
)

// String returns the kind's human-readable name.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindHelloAck:
		return "helloack"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindHeartbeat:
		return "heartbeat"
	case KindApp:
		return "app"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxFrameSize bounds a single frame body. Data payloads are normally
// chunked to 8 KB by the applications (paper §VI-B), but the library itself
// allows larger messages up to this limit.
const MaxFrameSize = 64 << 20

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrShortFrame    = errors.New("wire: truncated frame body")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
)

// Message is any decodable protocol message.
type Message interface {
	// Kind reports the message's wire kind.
	Kind() Kind
	// AppendBody appends the kind-specific payload to buf.
	AppendBody(buf []byte) []byte
	// DecodeBody parses the kind-specific payload.
	DecodeBody(body []byte) error
}

// Hello is the first frame on a freshly dialed link: it identifies the
// dialing node so the accepting side can bind the connection to a peer.
type Hello struct {
	// From is the 1-based WAN node index of the dialer.
	From uint16
}

// HelloAck is the accepting side's reply: it reports the highest contiguous
// data sequence it has received from the dialer, so the dialer can resume
// streaming from LastSeq+1 after a reconnect.
type HelloAck struct {
	From    uint16
	LastSeq uint64
}

// Data carries one sequenced data message on the data plane.
type Data struct {
	// Seq is the origin-assigned sequence number (1-based, dense).
	Seq uint64
	// SentUnixNano is the origin's send timestamp, used by the
	// experiment harnesses to compute end-to-end latency.
	SentUnixNano int64
	// Payload is the application data.
	Payload []byte
}

// Ack is one monotonic stability report on the control plane: node By has
// observed stability Type for all of node Origin's messages up to Seq.
// Newer values overwrite older ones — receivers only keep the maximum.
type Ack struct {
	Origin uint16
	By     uint16
	Type   uint16
	Seq    uint64
}

// Heartbeat keeps links alive and drives failure detection.
type Heartbeat struct {
	// Clock is a sender-local monotonic counter.
	Clock uint64
}

// App carries an application-level request or response outside the
// sequenced data stream (e.g. quorum read RPCs).
type App struct {
	// ID correlates a response with its request.
	ID uint64
	// Method is an application-defined selector.
	Method uint16
	// IsResponse distinguishes replies from requests.
	IsResponse bool
	// From is the sending node's index.
	From uint16
	// Payload is the application body.
	Payload []byte
}

// Compile-time interface checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*HelloAck)(nil)
	_ Message = (*Data)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*App)(nil)
)

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

// Kind implements Message.
func (*HelloAck) Kind() Kind { return KindHelloAck }

// Kind implements Message.
func (*Data) Kind() Kind { return KindData }

// Kind implements Message.
func (*Ack) Kind() Kind { return KindAck }

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// Kind implements Message.
func (*App) Kind() Kind { return KindApp }

// AppendBody implements Message.
func (m *Hello) AppendBody(buf []byte) []byte {
	return appendU16(buf, m.From)
}

// DecodeBody implements Message.
func (m *Hello) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.From = d.u16()
	return d.finish()
}

// AppendBody implements Message.
func (m *HelloAck) AppendBody(buf []byte) []byte {
	buf = appendU16(buf, m.From)
	return appendU64(buf, m.LastSeq)
}

// DecodeBody implements Message.
func (m *HelloAck) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.From = d.u16()
	m.LastSeq = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *Data) AppendBody(buf []byte) []byte {
	buf = appendU64(buf, m.Seq)
	buf = appendU64(buf, uint64(m.SentUnixNano))
	return append(buf, m.Payload...)
}

// DecodeBody implements Message.
func (m *Data) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Seq = d.u64()
	m.SentUnixNano = int64(d.u64())
	if d.err != nil {
		return d.err
	}
	m.Payload = d.rest()
	return nil
}

// AppendBody implements Message.
func (m *Ack) AppendBody(buf []byte) []byte {
	buf = appendU16(buf, m.Origin)
	buf = appendU16(buf, m.By)
	buf = appendU16(buf, m.Type)
	return appendU64(buf, m.Seq)
}

// DecodeBody implements Message.
func (m *Ack) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Origin = d.u16()
	m.By = d.u16()
	m.Type = d.u16()
	m.Seq = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *Heartbeat) AppendBody(buf []byte) []byte {
	return appendU64(buf, m.Clock)
}

// DecodeBody implements Message.
func (m *Heartbeat) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Clock = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *App) AppendBody(buf []byte) []byte {
	buf = appendU64(buf, m.ID)
	buf = appendU16(buf, m.Method)
	if m.IsResponse {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendU16(buf, m.From)
	return append(buf, m.Payload...)
}

// DecodeBody implements Message.
func (m *App) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.ID = d.u64()
	m.Method = d.u16()
	m.IsResponse = d.u8() != 0
	m.From = d.u16()
	if d.err != nil {
		return d.err
	}
	m.Payload = d.rest()
	return nil
}

// AppendFrame appends a complete frame (length prefix, kind byte, body) for
// msg to buf and returns the extended slice.
func AppendFrame(buf []byte, msg Message) []byte {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = append(buf, byte(msg.Kind()))
	buf = msg.AppendBody(buf)
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf
}

// DataFrameOverhead is the encoded size of a Data frame minus its payload:
// the 4-byte length prefix, the kind byte, and the fixed seq + timestamp
// fields. A Data frame on the wire is exactly a DataFrameOverhead-byte
// header followed by the raw payload.
const DataFrameOverhead = 4 + 1 + 8 + 8

// AppendDataFrame appends the complete Data frame for seq, sentUnixNano and
// payload: the bytes AppendFrame(buf, &Data{...}) appends, without building
// a Data. The send log keeps each message as this frame, in memory and on
// disk, and a link writes it as it is.
func AppendDataFrame(buf []byte, seq uint64, sentUnixNano int64, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(DataFrameOverhead-4+len(payload)))
	buf = append(buf, byte(KindData))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(sentUnixNano))
	return append(buf, payload...)
}

// PutDataSeq stamps seq into a frame AppendDataFrame built.
func PutDataSeq(frame []byte, seq uint64) {
	binary.BigEndian.PutUint64(frame[5:13], seq)
}

// DecodeDataFrame decodes the Data frame at the head of b into d and returns
// its length, or returns 0 when b does not begin with a complete Data frame.
// d.Payload is a full-capacity sub-slice of b, lent in place.
func DecodeDataFrame(b []byte, d *Data) int {
	if len(b) < DataFrameOverhead || Kind(b[4]) != KindData {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < DataFrameOverhead-4 || n > len(b)-4 {
		return 0
	}
	end := 4 + n
	d.Seq = binary.BigEndian.Uint64(b[5:])
	d.SentUnixNano = int64(binary.BigEndian.Uint64(b[13:]))
	d.Payload = b[DataFrameOverhead:end:end]
	return end
}

// WriteFrame encodes msg as one frame and writes it to w.
func WriteFrame(w io.Writer, msg Message) error {
	buf := AppendFrame(nil, msg)
	_, err := w.Write(buf)
	return err
}

// Reader decodes a stream of frames. The stream is read straight into one
// read chunk, every frame is decoded where it landed, and the undecoded tail
// moves to the chunk's front when the next frame would run past its end; do
// not read from the underlying stream while a Reader is attached.
//
// The one ownership rule of the receive path: everything Next and
// AppendBufferedData return — the scratch structs for Data, Ack and
// Heartbeat, and every Data.Payload, a full-capacity sub-slice of the chunk
// — is valid until the following call to Next. A transport that makes its
// upcalls before reading on therefore lends each payload for the length of
// its upcall; a consumer that keeps one copies it. Hello, HelloAck and App
// are fresh per frame, and an App.Payload is a copy.
type Reader struct {
	src  io.Reader
	buf  []byte // the read chunk; buf[r:w] is read but not yet decoded
	r, w int
	err  error // the stream's read error, reported once buf[r:w] runs short

	// Scratch messages for the hot-path kinds; handed out by Next and
	// overwritten by the following call.
	data Data
	ack  Ack
	hb   Heartbeat
}

// readChunk is the size of a read chunk. A chunk is larger only when one
// frame is: it then holds exactly that frame, so the next frame moves to a
// chunk of readChunk again and the Reader keeps no oversize memory past it.
// Those two moves are the only chunks a Reader allocates after NewReader.
const readChunk = 64 << 10

// NewReader wraps src in a frame decoder.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, buf: make([]byte, readChunk)}
}

// Next reads and decodes the next frame, valid on the Reader's terms: until
// the following call to Next. A Data.Payload has no spare capacity, so an
// append to it copies instead of running into the frame behind it.
func (r *Reader) Next() (Message, error) {
	if err := r.fill(4); err != nil {
		return nil, eofErr(err, r.w > r.r)
	}
	n := binary.BigEndian.Uint32(r.buf[r.r:])
	if n == 0 {
		return nil, ErrShortFrame
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if err := r.fill(4 + int(n)); err != nil {
		return nil, eofErr(err, true)
	}
	end := r.r + 4 + int(n)
	if Kind(r.buf[r.r+4]) == KindData {
		// Decoded in place, so the payload stays in the chunk instead of
		// taking the generic copy in rest().
		if DecodeDataFrame(r.buf[r.r:end], &r.data) == 0 {
			return nil, fmt.Errorf("wire: decode data: %w", ErrShortFrame)
		}
		r.r = end
		return &r.data, nil
	}
	msg, err := r.decodeBody(r.buf[r.r+4 : end])
	if err != nil {
		return nil, err
	}
	r.r = end
	return msg, nil
}

// AppendBufferedData decodes the complete Data frames already sitting in the
// read chunk and appends them to dst, stopping at the first frame that is
// not Data, is not fully buffered, or would make len(dst) exceed max. It
// never reads from the underlying stream, so it cannot block; whatever stops
// it (a malformed frame included) is left for the following Next to report.
// The appended structs are copies; their payloads are lent like Next's, until
// the following Next.
func (r *Reader) AppendBufferedData(dst []Data, max int) []Data {
	for len(dst) < max {
		// Decoded in place, not into a local Data copied in after: this
		// loop runs once per received frame.
		dst = append(dst, Data{})
		n := DecodeDataFrame(r.buf[r.r:r.w], &dst[len(dst)-1])
		if n == 0 {
			return dst[:len(dst)-1]
		}
		r.r += n
	}
	return dst
}

// fill reads until buf[r:w] holds at least need bytes. When a frame of need
// bytes would run past the chunk's end, the undecoded tail first moves to
// the front of a chunk of max(readChunk, need): this one if it is that size,
// a fresh one otherwise.
func (r *Reader) fill(need int) error {
	if r.r+need > len(r.buf) {
		size, chunk := max(readChunk, need), r.buf
		if len(chunk) != size {
			chunk = make([]byte, size)
		}
		r.w = copy(chunk, r.buf[r.r:r.w])
		r.buf, r.r = chunk, 0
	}
	for empty := 0; r.w-r.r < need; {
		if r.err != nil {
			return r.err
		}
		if empty == 100 { // bufio's bound on a Read that keeps returning 0, nil
			return io.ErrNoProgress
		}
		n, err := r.src.Read(r.buf[r.w:])
		if n == 0 {
			empty++
		}
		r.w, r.err = r.w+n, err
	}
	return nil
}

// eofErr maps a short read onto io.ReadFull semantics: io.EOF at a clean
// frame boundary, io.ErrUnexpectedEOF once a frame has begun.
func eofErr(err error, torn bool) error {
	if torn && errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBody decodes one frame body (kind byte + fields) of any kind but
// Data, copying out every slice it retains.
func (r *Reader) decodeBody(body []byte) (Message, error) {
	msg, err := r.message(Kind(body[0]))
	if err != nil {
		return nil, err
	}
	if err := msg.DecodeBody(body[1:]); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", msg.Kind(), err)
	}
	return msg, nil
}

// message returns the destination struct for kind k: a reused scratch
// struct for the hot-path kinds, a fresh allocation otherwise (handshake
// frames are rare; App messages are retained by application handlers).
func (r *Reader) message(k Kind) (Message, error) {
	switch k {
	case KindHello:
		return &Hello{}, nil
	case KindHelloAck:
		return &HelloAck{}, nil
	case KindAck:
		return &r.ack, nil
	case KindHeartbeat:
		return &r.hb, nil
	case KindApp:
		return &App{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
}

// --- primitive encoding helpers ---

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.err = ErrShortFrame
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 2 {
		d.err = ErrShortFrame
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = ErrShortFrame
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// rest returns a copy of the remaining bytes.
func (d *decoder) rest() []byte {
	out := make([]byte, len(d.buf))
	copy(out, d.buf)
	d.buf = nil
	return out
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}
