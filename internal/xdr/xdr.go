// Package xdr implements the subset of XDR (RFC 1832 / RFC 4506) external
// data representation needed by ONC RPC, the RPC/RDMA header, and NFSv3:
// big-endian 4-byte alignment, unsigned and signed 32/64-bit integers,
// booleans, variable- and fixed-length opaque data, and strings.
package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// ErrShortBuffer is returned when a decode runs off the end of the input.
var ErrShortBuffer = errors.New("xdr: short buffer")

// ErrTooLong is returned when a counted item exceeds the decoder's sanity
// limit (guarding protocol code against hostile lengths).
var ErrTooLong = errors.New("xdr: counted item too long")

// ErrBadBool is returned for a boolean other than 0 or 1 (RFC 4506 §4.4).
var ErrBadBool = errors.New("xdr: boolean neither 0 nor 1")

// ErrBadValue is returned by a Codec for a word its type does not allow,
// such as one other than the single value Const writes.
var ErrBadValue = errors.New("xdr: value outside its type")

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

// Bool decodes a boolean: 0 or 1, and any other word is ErrBadBool.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if v > 1 {
		return false, ErrBadBool
	}
	return v == 1, err
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, ErrTooLong
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

// Codec encodes or decodes, as its direction says, so that a type describes
// its wire form once, in one method taking a *Codec (rpcgen's xdr_T with its
// x_op, RFC 5531): the method passes each field by pointer, and encoding
// reads it while decoding stores it. A decoder must not read a field and drop
// it: it stores it, or checks it against the one value the encoder writes
// (Const, Check), so what decodes encodes back to the same bytes.
//
// The first error sticks: decoding stops there, every later item decodes as
// zero, and Err reports it.
type Codec struct {
	decoding bool
	enc      *Encoder
	dec      Decoder
	err      error
}

// EncodeTo returns a Codec appending to e.
func EncodeTo(e *Encoder) Codec { return Codec{enc: e} }

// DecodeFrom returns a Codec reading buf.
func DecodeFrom(buf []byte) Codec { return Codec{decoding: true, dec: Decoder{buf: buf}} }

// Decoding reports whether the codec decodes.
func (c *Codec) Decoding() bool { return c.decoding }

// Err returns the first error met.
func (c *Codec) Err() error { return c.err }

// Offset returns the number of bytes decoded.
func (c *Codec) Offset() int { return c.dec.off }

func (c *Codec) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
		c.dec.off = len(c.dec.buf)
	}
}

// Check fails the codec with err unless ok: for a field whose type allows
// fewer values than its wire form carries.
func (c *Codec) Check(ok bool, err error) {
	if !ok {
		c.fail(err)
	}
}

// Uint32 codes an unsigned integer.
func (c *Codec) Uint32(v *uint32) {
	if !c.decoding {
		c.enc.Uint32(*v)
		return
	}
	var err error
	*v, err = c.dec.Uint32()
	c.fail(err)
}

// Uint64 codes an unsigned hyper integer.
func (c *Codec) Uint64(v *uint64) {
	if !c.decoding {
		c.enc.Uint64(*v)
		return
	}
	var err error
	*v, err = c.dec.Uint64()
	c.fail(err)
}

// Bool codes a boolean.
func (c *Codec) Bool(v *bool) {
	if !c.decoding {
		c.enc.Bool(*v)
		return
	}
	var err error
	*v, err = c.dec.Bool()
	c.fail(err)
}

// String codes a string.
func (c *Codec) String(v *string) {
	if !c.decoding {
		c.enc.String(*v)
		return
	}
	var err error
	*v, err = c.dec.String()
	c.fail(err)
}

// Opaque codes variable-length opaque data; decoded, it aliases the input.
func (c *Codec) Opaque(v *[]byte) {
	if !c.decoding {
		c.enc.Opaque(*v)
		return
	}
	var err error
	*v, err = c.dec.Opaque()
	c.fail(err)
}

// Const codes a word whose one value is v: decoding any other fails with
// ErrBadValue.
func (c *Codec) Const(v uint32) {
	w := v
	c.Uint32(&w)
	c.Check(w == v, ErrBadValue)
}

// Optional codes the discriminant of optional-data (RFC 4506 §4.19) and
// reports whether the item follows it.
func (c *Codec) Optional(present *bool) bool {
	c.Bool(present)
	return *present
}

// List codes a list as optional-data links: TRUE before each item, FALSE
// after the last. Encoding calls item for each i below n; decoding calls it
// for each item on the wire, i counting from 0, and item grows what it
// decodes into.
func (c *Codec) List(n int, item func(i int)) {
	for i := 0; ; i++ {
		if more := i < n; !c.Optional(&more) {
			return
		}
		item(i)
	}
}
