// Package xdr implements the subset of XDR (RFC 1832 / RFC 4506) external
// data representation needed by ONC RPC, the RPC/RDMA header, and NFSv3:
// big-endian 4-byte alignment, unsigned and signed 32/64-bit integers,
// booleans, variable- and fixed-length opaque data, and strings.
package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a decode runs off the end of the input.
var ErrShortBuffer = errors.New("xdr: short buffer")

// ErrTooLong is returned when a counted item exceeds the decoder's sanity
// limit (guarding protocol code against hostile lengths).
var ErrTooLong = errors.New("xdr: counted item too long")

// ErrPadding is returned when the bytes padding an item to 4-byte alignment
// are not zero (RFC 4506 §4.9): only the canonical encoding decodes, so what
// decodes encodes back to the same bytes.
var ErrPadding = errors.New("xdr: non-zero padding")

// MaxOpaque bounds variable-length items accepted by the decoder. NFSv3
// READ/WRITE payloads move as RDMA chunks, not inline XDR, so inline items
// stay small; 16 MiB accommodates the largest inline transfer with margin.
const MaxOpaque = 16 << 20

func pad(n int) int { return (4 - n%4) % 4 }

var zeros [3]byte // padding

// Encoder appends XDR-encoded items to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Reset makes the encoder append to buf, so that one kept inside a longer
// lived object needs no allocation of its own.
func (e *Encoder) Reset(buf []byte) { e.buf = buf }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a 64-bit signed integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes a boolean as 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data (length + bytes + padding).
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// FixedOpaque encodes fixed-length opaque data (bytes + padding, no length).
func (e *Encoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	e.buf = append(e.buf, zeros[:pad(len(b))]...)
}

// String encodes an XDR string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, zeros[:pad(len(s))]...)
}

// Decoder consumes XDR-encoded items from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean; any non-zero value is true (per RFC 4506 §4.4
// booleans are 0 or 1, but liberal acceptance aids fuzzing).
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, fmt.Errorf("%w: %d", ErrTooLong, n)
	}
	return d.FixedOpaque(int(n))
}

// FixedOpaque decodes n bytes plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n+pad(n) {
		return nil, ErrShortBuffer
	}
	if !bytes.Equal(d.buf[d.off+n:d.off+n+pad(n)], zeros[:pad(n)]) {
		return nil, ErrPadding
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n + pad(n)
	return b, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}
