package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint32(0xdeadbeef)
	e.Int32(-42)
	e.Uint64(0x0123456789abcdef)
	e.Int64(-1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.String("hello, nfs")
	e.Opaque([]byte{1, 2, 3})
	e.FixedOpaque([]byte{9, 8})

	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("uint32 = %#x", v)
	}
	if v, _ := d.Int32(); v != -42 {
		t.Errorf("int32 = %d", v)
	}
	if v, _ := d.Uint64(); v != 0x0123456789abcdef {
		t.Errorf("uint64 = %#x", v)
	}
	if v, _ := d.Int64(); v != -1<<40 {
		t.Errorf("int64 = %d", v)
	}
	if v, _ := d.Bool(); !v {
		t.Error("bool true")
	}
	if v, _ := d.Bool(); v {
		t.Error("bool false")
	}
	if v, _ := d.String(); v != "hello, nfs" {
		t.Errorf("string = %q", v)
	}
	if v, _ := d.Opaque(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("opaque = %v", v)
	}
	if v, _ := d.FixedOpaque(2); !bytes.Equal(v, []byte{9, 8}) {
		t.Errorf("fixed = %v", v)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestAlignment(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(nil)
		e.Opaque(make([]byte, n))
		if e.Len()%4 != 0 {
			t.Errorf("opaque(%d) encodes to %d bytes, not 4-aligned", n, e.Len())
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("uint32 err = %v", err)
	}
	e := NewEncoder(nil)
	e.Uint32(1000) // claims 1000 bytes follow
	d = NewDecoder(e.Bytes())
	if _, err := d.Opaque(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("opaque err = %v", err)
	}
}

func TestHostileLengthRejected(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint32(0xffffffff)
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); !errors.Is(err, ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", err)
	}
}

// TestBoolRejectsNonCanonical: a boolean is 0 or 1 (RFC 4506 §4.4), so any
// other word is not one, through the Decoder and through a Codec.
func TestBoolRejectsNonCanonical(t *testing.T) {
	for _, w := range []uint32{2, 0x80000000, 0xffffffff} {
		e := NewEncoder(nil)
		e.Uint32(w)
		if v, err := NewDecoder(e.Bytes()).Bool(); !errors.Is(err, ErrBadBool) {
			t.Errorf("Decoder.Bool of %#x = %v, %v; want ErrBadBool", w, v, err)
		}
		c, v := DecodeFrom(e.Bytes()), false
		if c.Bool(&v); !errors.Is(c.Err(), ErrBadBool) {
			t.Errorf("Codec.Bool of %#x = %v, %v; want ErrBadBool", w, v, c.Err())
		}
	}
}

// codecItems is a type described once for TestCodec.
type codecItems struct {
	u32     uint32
	u64     uint64
	flag    bool
	s       string
	b       []byte
	present bool
	list    []uint32
}

func (v *codecItems) xdr(c *Codec) {
	c.Uint32(&v.u32)
	c.Uint64(&v.u64)
	c.Bool(&v.flag)
	c.String(&v.s)
	c.Opaque(&v.b)
	c.Const(7)
	if c.Optional(&v.present) {
		c.Uint32(&v.u32)
	}
	c.List(len(v.list), func(i int) {
		if c.Decoding() {
			v.list = append(v.list, 0)
		}
		c.Uint32(&v.list[i])
	})
}

// TestCodec: what one description encodes, it decodes to the same value
// from exactly those bytes; a word other than Const's fails, and the first
// error sticks with everything after it decoded as zero.
func TestCodec(t *testing.T) {
	in := codecItems{u32: 1, u64: 2 << 40, flag: true, s: "abcde", b: []byte{9, 8}, present: true, list: []uint32{3, 4}}
	e := NewEncoder(nil)
	c := EncodeTo(e)
	in.xdr(&c)
	var out codecItems
	c = DecodeFrom(e.Bytes())
	if out.xdr(&c); c.Err() != nil || c.Offset() != e.Len() {
		t.Fatalf("decode: %v after %d of %d bytes", c.Err(), c.Offset(), e.Len())
	}
	if out.u32 != in.u32 || out.u64 != in.u64 || !out.flag || out.s != in.s || !bytes.Equal(out.b, in.b) ||
		!out.present || len(out.list) != 2 || out.list[0] != 3 || out.list[1] != 4 {
		t.Errorf("decoded %+v, encoded %+v", out, in)
	}

	bad := append([]byte(nil), e.Bytes()...)
	bad[4+8+4+12+8+3] = 6 // Const's 7, behind u32, u64, flag, s and b
	c, out = DecodeFrom(bad), codecItems{}
	if out.xdr(&c); !errors.Is(c.Err(), ErrBadValue) || out.present || out.list != nil {
		t.Errorf("wrong constant: %v, then %+v", c.Err(), out)
	}
	c, out = DecodeFrom(e.Bytes()[:6]), codecItems{}
	if out.xdr(&c); !errors.Is(c.Err(), ErrShortBuffer) || out.u64 != 0 || out.flag || out.s != "" || out.list != nil {
		t.Errorf("truncated: %v, then %+v", c.Err(), out)
	}
}

func TestQuickOpaqueRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		e := NewEncoder(nil)
		e.Opaque(b)
		e.Uint32(0x5a5a5a5a) // sentinel: padding must be consumed exactly
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque()
		if err != nil || !bytes.Equal(got, b) {
			return false
		}
		s, err := d.Uint32()
		return err == nil && s == 0x5a5a5a5a && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScalarsRoundTrip(t *testing.T) {
	f := func(a uint32, b int32, c uint64, d64 int64, s string, flag bool) bool {
		e := NewEncoder(nil)
		e.Uint32(a)
		e.Int32(b)
		e.Uint64(c)
		e.Int64(d64)
		e.String(s)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		ga, _ := d.Uint32()
		gb, _ := d.Int32()
		gc, _ := d.Uint64()
		gd, _ := d.Int64()
		gs, _ := d.String()
		gf, err := d.Bool()
		return err == nil && ga == a && gb == b && gc == c && gd == d64 && gs == s && gf == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
