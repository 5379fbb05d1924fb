// Package server is the cluster's front door: it exposes the embedded
// FI-MPPDB behind a length-prefixed request/response wire protocol so the
// whole stack can be driven like a server instead of a library. Frames
// travel either over the in-process transport fabric (per-session traffic
// shows up in the fabric's byte/count accounting and is subject to its
// injected faults) or over a real net.Listener — both carry the same
// bytes. On the coordinator side each connection owns a session object
// (auth-less handshake, per-session prepared-statement cache keyed by
// normalized SQL, transaction affinity, idle eviction), and every
// statement passes the workload manager's SLA admission gate before
// executing: under overload low-priority sessions queue and shed while
// high-priority SLAs are protected (paper §IV-A1).
package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/types"
)

// Op is a request opcode.
type Op uint8

// Request opcodes.
const (
	// OpHello opens a session (auth-less handshake): the response carries
	// the session token every later request must present.
	OpHello Op = iota + 1
	// OpExec runs one SQL statement on the request's session.
	OpExec
	// OpPing is a health probe (no admission, no execution).
	OpPing
	// OpClose ends the session and releases its server-side state.
	OpClose
)

// Status is a response status code.
type Status uint8

// Response statuses.
const (
	// StatusOK carries a result.
	StatusOK Status = iota
	// StatusError carries an execution or protocol error message.
	StatusError
	// StatusQueueFull means the admission gate shed the statement; the
	// client should back off and retry (driver: jittered backoff).
	StatusQueueFull
	// StatusNoSession means the session token is unknown — expired by the
	// idle reaper or never opened. The client must re-handshake.
	StatusNoSession
)

// Request flag bits.
const (
	// FlagBegin opens an explicit transaction on the session before the
	// frame's statement runs, under the statement's admission slot — a
	// transaction's BEGIN rides on its first statement instead of taking a
	// round trip of its own.
	FlagBegin uint8 = 1 << iota

	knownFlags = FlagBegin
)

// Request is one client -> CN frame.
type Request struct {
	Op Op
	// Priority is the session's SLA class (set on OpHello; echoed on later
	// requests but the session's handshake class wins).
	Priority uint8
	// Flags holds the request flag bits (FlagBegin); a frame with a bit
	// this version does not know is rejected.
	Flags uint8
	// Session is the token from the OpHello response (0 for OpHello).
	Session uint64
	// TimeoutMillis bounds the server-side admission wait (0 = server
	// default). A cancelled wait frees the queue slot (AdmitCtx).
	TimeoutMillis uint32
	// SQL is the statement text (OpExec).
	SQL string
}

// Response is one CN -> client frame.
type Response struct {
	Status  Status
	Session uint64
	Err     string
	// CacheHit reports whether the statement parse was served from the
	// session's prepared-statement cache.
	CacheHit bool
	// InTxn reports, for a frame that executed, whether the session is
	// inside an explicit transaction afterwards — how a client learns that
	// its begin-carrying frame opened one.
	InTxn        bool
	RowsAffected int64
	Columns      []string
	Rows         []types.Row
}

// maxFrame bounds a frame so a corrupted length prefix cannot allocate
// unbounded memory.
const maxFrame = 64 << 20

// EncodeRequest renders a request frame (without the length prefix — the
// carrier adds it: the fabric as the message payload size, WriteFrame on a
// byte stream).
func EncodeRequest(q *Request) []byte {
	// Op, priority and flags, the session, the timeout, the SQL's length.
	b := make([]byte, 0, 3+8+4+4+len(q.SQL))
	b = append(b, byte(q.Op), q.Priority, q.Flags)
	b = types.AppendU64(b, q.Session)
	b = types.AppendU32(b, q.TimeoutMillis)
	b = types.AppendString(b, q.SQL)
	return b
}

// DecodeRequest parses a request frame.
func DecodeRequest(b []byte) (*Request, error) {
	q := new(Request)
	if err := q.decode(b); err != nil {
		return nil, err
	}
	return q, nil
}

// decode parses a request frame into q, overwriting all of it. The SQL is
// copied out of the frame.
func (q *Request) decode(b []byte) error {
	r := types.NewReader(b)
	*q = Request{
		Op:       Op(r.U8()),
		Priority: r.U8(),
		Flags:    r.U8(),
	}
	q.Session = r.U64()
	q.TimeoutMillis = r.U32()
	q.SQL = r.Str()
	if r.Err() != nil {
		return r.Err()
	}
	if q.Flags&^knownFlags != 0 {
		return fmt.Errorf("server: unknown request flags %#x", q.Flags&^knownFlags)
	}
	return nil
}

// Response flag bits, one byte on the wire.
const (
	respCacheHit = 1 << iota
	respInTxn
)

// EncodeResponse renders a response frame into a buffer made at its length.
func EncodeResponse(p *Response) []byte {
	// The fixed fields, then a u32 per list, string and row.
	n := 18 + 4*(3+len(p.Columns)+len(p.Rows)) + len(p.Err)
	for _, c := range p.Columns {
		n += len(c)
	}
	for _, row := range p.Rows {
		for _, d := range row {
			n += types.DatumSize(d)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, byte(p.Status))
	b = types.AppendU64(b, p.Session)
	b = types.AppendString(b, p.Err)
	var flags byte
	if p.CacheHit {
		flags |= respCacheHit
	}
	if p.InTxn {
		flags |= respInTxn
	}
	b = append(b, flags)
	b = types.AppendU64(b, uint64(p.RowsAffected))
	b = types.AppendU32(b, uint32(len(p.Columns)))
	for _, c := range p.Columns {
		b = types.AppendString(b, c)
	}
	b = types.AppendU32(b, uint32(len(p.Rows)))
	for _, row := range p.Rows {
		b = types.AppendU32(b, uint32(len(row)))
		for _, d := range row {
			b = types.AppendDatum(b, d)
		}
	}
	return b
}

// DecodeResponse parses a response frame.
func DecodeResponse(b []byte) (*Response, error) {
	p := new(Response)
	if err := p.Decode(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Decode parses a response frame into p, overwriting all of it; what it
// allocates is the reply's columns and rows.
func (p *Response) Decode(b []byte) error {
	r := types.NewReader(b)
	*p = Response{Status: Status(r.U8())}
	p.Session = r.U64()
	p.Err = r.Str()
	flags := r.U8()
	p.CacheHit, p.InTxn = flags&respCacheHit != 0, flags&respInTxn != 0
	p.RowsAffected = int64(r.U64())
	// Every column name and row carries at least its own u32 length, every
	// datum at least its kind byte.
	if ncols := r.Count(4); ncols > 0 {
		p.Columns = make([]string, ncols)
		for i := 0; i < ncols && r.Err() == nil; i++ {
			p.Columns[i] = r.Str()
		}
	}
	// Rows are carved, cap-limited, from a slab sized for the rows left at
	// the current width, never above the bytes left: a datum takes one or more.
	if nrows := r.Count(4); nrows > 0 {
		p.Rows = make([]types.Row, nrows)
		var slab []types.Datum
		for i := 0; i < nrows && r.Err() == nil; i++ {
			w := r.Count(1)
			if len(slab) < w {
				slab = make([]types.Datum, min(w*(nrows-i), r.Len()))
			}
			p.Rows[i], slab = slab[:w:w], slab[w:]
			for j := 0; j < w && r.Err() == nil; j++ {
				p.Rows[i][j] = r.Datum()
			}
		}
	}
	return r.Err()
}

// WriteFrame writes one length-prefixed frame to a byte stream (the TCP
// carrier; the fabric carrier passes the frame bytes directly and charges
// their length as the message payload).
func WriteFrame(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame from a byte stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame length %d exceeds limit", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
