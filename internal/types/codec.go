package types

import (
	"encoding/binary"
	"fmt"
)

// The binary datum codec, shared by the front door's frames and GMDB's
// objects: integers are little endian, a string or byte string is a u32
// length then its bytes, and a datum is one kind byte then a kind-specific
// payload.

// AppendU32 appends v.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendString appends s behind its u32 length.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendBytes appends raw behind its u32 length.
func AppendBytes(b, raw []byte) []byte {
	b = AppendU32(b, uint32(len(raw)))
	return append(b, raw...)
}

// AppendDatum appends d's kind byte and payload: nothing for NULL, one
// byte for BOOL, the 8 bytes of a BIGINT, a DOUBLE's bits or a TIMESTAMP's
// Unix nanoseconds, and TEXT or BYTEA behind its length.
func AppendDatum(b []byte, d Datum) []byte {
	b = append(b, byte(d.kind))
	switch d.kind {
	case KindBool:
		b = append(b, byte(d.i))
	case KindInt, KindFloat, KindTime:
		b = AppendU64(b, uint64(d.i))
	case KindString, KindBytes:
		b = AppendString(b, d.s)
	}
	return b
}

// DatumSize is the number of bytes AppendDatum writes for d.
func DatumSize(d Datum) int {
	switch d.kind {
	case KindBool:
		return 2
	case KindInt, KindFloat, KindTime:
		return 9
	case KindString, KindBytes:
		return 5 + len(d.s)
	}
	return 1
}

// Reader decodes what the Append functions wrote. It is bounds-checked:
// the first read past the end (or of a malformed value) sets Err, and
// every read after that returns a zero value.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first failed read.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not read yet.
func (r *Reader) Len() int { return len(r.b) - r.off }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the
// reader's input.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads a u32 element count and rejects one the rest of the input
// cannot hold at minBytes per element, so a corrupt or hostile count can
// never size an allocation beyond a small multiple of the input itself.
func (r *Reader) Count(minBytes int) int {
	n := int(r.U32())
	if r.err != nil || n > (len(r.b)-r.off)/minBytes {
		r.fail()
		return 0
	}
	return n
}

// Datum reads one datum.
func (r *Reader) Datum() Datum {
	switch k := Kind(r.U8()); k {
	case KindNull:
		return Null
	case KindBool:
		return NewBool(r.U8() != 0)
	case KindInt, KindFloat, KindTime:
		return Datum{kind: k, i: int64(r.U64())}
	case KindString, KindBytes:
		return Datum{kind: k, s: r.Str()}
	default:
		r.fail()
		return Null
	}
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("types: truncated or malformed input at offset %d", r.off)
	}
}
