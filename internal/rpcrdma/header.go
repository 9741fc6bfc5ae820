// Package rpcrdma implements the RPC/RDMA transport of the paper: the
// header of its Figure 2 (transaction id, version, flow-control credits,
// message type, and the read / write / reply chunk lists), the inline
// protocol for small messages, RPC long calls and long replies, and both
// bulk-data designs:
//
//   - the original Callaghan Read-Read design, where the server advertises
//     its reply buffers as read chunks, the client pulls them with RDMA
//     Read and confirms with RDMA_DONE — exposing server memory and tying
//     server buffers to client cooperation; and
//   - the paper's proposed Read-Write design, where the client advertises
//     write and reply chunks in the call and the server pushes data with
//     RDMA Write before the inline reply, relying on InfiniBand's
//     Write-then-Send ordering to eliminate the DONE message, the extra
//     interrupt, and all remote exposure of server memory.
//
// Memory registration on both sides goes through a memreg.Manager, so every
// strategy of §4.3 (regular, FMR, all-physical, registration cache) plugs
// into either design.
package rpcrdma

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/memreg"
	"repro/internal/xdr"
)

// Version is the RPC/RDMA protocol version.
const Version = 1

// MsgType is the RPC/RDMA message type of Figure 2.
type MsgType uint32

// Message types.
const (
	// MsgRDMA is an RPC call or reply with inline body (RDMA_MSG).
	MsgRDMA MsgType = 0
	// MsgNoMsg is an RPC call or reply with no inline body: the message
	// itself travels as a chunk (RDMA_NOMSG; long call / long reply).
	MsgNoMsg MsgType = 1
	// MsgPadded is RDMA_MSGP (padding optimization); accepted but not
	// generated by this implementation.
	MsgPadded MsgType = 2
	// MsgDone is the client's signal that it has finished its RDMA Reads
	// of server-advertised chunks (RDMA_DONE; Read-Read design only).
	MsgDone MsgType = 3
)

func (t MsgType) String() string {
	switch t {
	case MsgRDMA:
		return "RDMA_MSG"
	case MsgNoMsg:
		return "RDMA_NOMSG"
	case MsgPadded:
		return "RDMA_MSGP"
	case MsgDone:
		return "RDMA_DONE"
	}
	return fmt.Sprintf("msgtype(%d)", uint32(t))
}

// Errors.
var (
	ErrBadHeader  = errors.New("rpcrdma: malformed header")
	ErrBadVersion = errors.New("rpcrdma: unsupported version")
	ErrTransport  = errors.New("rpcrdma: transport failure")
	ErrClosed     = errors.New("rpcrdma: transport closed")
	// ErrTimeout is a call whose per-call timer expired. The timeout closed
	// the call's connection, so recovery layers treat it like a transport
	// failure and replay the call on a new one.
	ErrTimeout = errors.New("rpcrdma: call timed out")
	// ErrAdmission is a connection refused by server admission control
	// (MaxConns live connections already accepted). The dialing peer sees
	// it on its own queue pair and should back off before redialling.
	ErrAdmission = errors.New("rpcrdma: connection rejected by admission control")
	// ErrQuarantined is the terminal error of a connection the server's
	// misbehavior scoring terminated: spoofed or forged control messages
	// accumulated past Config.QuarantineThreshold. On a shared mux QP only
	// the offending endpoint dies; siblings never observe it.
	ErrQuarantined = errors.New("rpcrdma: endpoint quarantined for misbehavior")
)

// Segment is one wire chunk segment: steering tag, length, and the remote
// address of a registered extent.
type Segment struct {
	Rkey   uint32
	Length uint32
	Addr   uint64
}

// ReadSeg is a read-list entry: a segment plus its XDR position in the
// message (position 0 = the message itself, i.e. a long call/reply).
type ReadSeg struct {
	Position uint32
	Segment
}

// Header is the decoded RPC/RDMA header (Figure 2).
type Header struct {
	XID     uint32
	Credits uint32
	Type    MsgType

	// ReadList advertises chunks the peer should RDMA Read from the
	// sender.
	ReadList []ReadSeg

	// WriteList advertises placement for bulk reply data the peer should
	// RDMA Write (Read-Write design; one chunk of one or more segments).
	WriteList []Segment

	// ReplyChunk advertises placement for an entire long reply.
	ReplyChunk []Segment
}

// appendSegs appends to dst the wire form of the segments of reg that cover
// its first n bytes, the last one shortened to fit.
func appendSegs(dst []Segment, reg *memreg.Registration, n int) []Segment {
	reg.Each(func(s memreg.Segment) {
		if n > 0 {
			l := min(s.Len, n)
			dst = append(dst, Segment{Rkey: s.Rkey, Length: uint32(l), Addr: s.Addr})
			n -= l
		}
	})
	return dst
}

// appendReadSegs is appendSegs for a read list, at XDR position pos.
func appendReadSegs(dst []ReadSeg, pos uint32, reg *memreg.Registration, n int) []ReadSeg {
	reg.Each(func(s memreg.Segment) {
		if n > 0 {
			l := min(s.Len, n)
			dst = append(dst, ReadSeg{Position: pos, Segment: Segment{Rkey: s.Rkey, Length: uint32(l), Addr: s.Addr}})
			n -= l
		}
	})
	return dst
}

// readBytes sums the read-list chunk lengths of one kind: the message itself
// (position 0, a long call or reply) or its bulk payload (position > 0).
func (h *Header) readBytes(long bool) int {
	n := 0
	for _, seg := range h.ReadList {
		if (seg.Position == 0) == long {
			n += int(seg.Length)
		}
	}
	return n
}

// Wire sizes: the fixed header (XID, version, credits, type and the three
// list counts), a read-list segment (position + segment) and a segment.
const hdrBase, readSegSize, segSize = 28, 20, 16

// wireSize is the encoded length of the header.
func (h *Header) wireSize() int {
	return hdrBase + readSegSize*len(h.ReadList) + segSize*(len(h.WriteList)+len(h.ReplyChunk))
}

// Encode marshals the header alone (RDMA_DONE, and long calls and replies,
// whose message travels as a chunk).
func (h *Header) Encode() []byte { return h.frame(nil, 0) }

// frame writes the header into the room buf[:room] kept in front of the
// message buf[room:], right-aligned so that it ends where the message begins,
// and returns the wire from the header's first byte. A header larger than its
// room — registration produced more segments than the room was sized for —
// slides the message up inside buf's spare capacity, or moves it to a new
// buffer once that is exhausted.
func (h *Header) frame(buf []byte, room int) []byte {
	n := h.wireSize()
	if grow := n - room; grow > 0 {
		if len(buf)+grow <= cap(buf) {
			buf = buf[:len(buf)+grow]
			copy(buf[n:], buf[room:])
		} else {
			buf = append(make([]byte, n, n+len(buf)-room), buf[room:]...)
		}
		room = n
	}
	e := xdr.NewEncoder(buf[room-n : room-n])
	e.Uint32(h.XID)
	e.Uint32(Version)
	e.Uint32(h.Credits)
	e.Uint32(uint32(h.Type))
	e.Uint32(uint32(len(h.ReadList)))
	for _, s := range h.ReadList {
		e.Uint32(s.Position)
		e.Uint32(s.Rkey)
		e.Uint32(s.Length)
		e.Uint64(s.Addr)
	}
	encodeSegs := func(segs []Segment) {
		e.Uint32(uint32(len(segs)))
		for _, s := range segs {
			e.Uint32(s.Rkey)
			e.Uint32(s.Length)
			e.Uint64(s.Addr)
		}
	}
	encodeSegs(h.WriteList)
	encodeSegs(h.ReplyChunk)
	return buf[room-n:]
}

const maxSegs = 256

// What a malformed frame is rejected with: made once, so that rejecting one
// costs the host nothing.
var (
	errShortHeader = fmt.Errorf("%w: %v", ErrBadHeader, xdr.ErrShortBuffer)
	errSegCount    = fmt.Errorf("%w: segment list", ErrBadHeader)
)

// DecodeHeader unmarshals an RPC/RDMA header and returns it plus the inline
// payload that follows.
func DecodeHeader(msg []byte) (*Header, []byte, error) {
	var h Header
	body, err := DecodeHeaderInto(&h, msg)
	if err != nil {
		return nil, nil, err
	}
	out := h // only a header that decoded reaches the heap
	return &out, body, nil
}

// DecodeHeaderInto is DecodeHeader into a header the caller owns, reusing the
// capacity of its lists. A list is sized only once its count is known to fit
// in what is left of the frame, so a count the frame cannot back allocates
// nothing. After an error h holds no meaningful value.
func DecodeHeaderInto(h *Header, msg []byte) ([]byte, error) {
	be := binary.BigEndian
	if len(msg) < 8 {
		return nil, errShortHeader
	}
	h.XID = be.Uint32(msg)
	if vers := be.Uint32(msg[4:]); vers != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, vers)
	}
	if len(msg) < 16 {
		return nil, errShortHeader
	}
	h.Credits, h.Type = be.Uint32(msg[8:]), MsgType(be.Uint32(msg[12:]))
	n, rest, err := listLen(msg[16:], 20)
	if err != nil {
		return nil, err
	}
	if cap(h.ReadList) < n {
		h.ReadList = make([]ReadSeg, 0, n)
	}
	h.ReadList = h.ReadList[:0]
	for ; n > 0; n-- {
		h.ReadList = append(h.ReadList, ReadSeg{Position: be.Uint32(rest), Segment: decodeSeg(rest[4:])})
		rest = rest[20:]
	}
	if h.WriteList, rest, err = decodeSegs(h.WriteList, rest); err != nil {
		return nil, err
	}
	if h.ReplyChunk, rest, err = decodeSegs(h.ReplyChunk, rest); err != nil {
		return nil, err
	}
	return rest, nil
}

// listLen reads a list's segment count and checks, before anything is sized
// by it, that the rest of the frame can hold that many segments of size bytes.
func listLen(rest []byte, size int) (int, []byte, error) {
	if len(rest) < 4 {
		return 0, nil, errShortHeader
	}
	n := int(binary.BigEndian.Uint32(rest))
	if n > maxSegs || n*size > len(rest)-4 {
		return 0, nil, errSegCount
	}
	return n, rest[4:], nil
}

func decodeSeg(b []byte) Segment {
	be := binary.BigEndian
	return Segment{Rkey: be.Uint32(b), Length: be.Uint32(b[4:]), Addr: be.Uint64(b[8:])}
}

// decodeSegs decodes the segment list at the head of rest into dst's storage,
// or into a new list where that is too small.
func decodeSegs(dst []Segment, rest []byte) ([]Segment, []byte, error) {
	n, rest, err := listLen(rest, 16)
	if err != nil {
		return dst, nil, err
	}
	if cap(dst) < n {
		dst = make([]Segment, 0, n)
	}
	dst = dst[:0]
	for ; n > 0; n-- {
		dst = append(dst, decodeSeg(rest))
		rest = rest[16:]
	}
	return dst, rest, nil
}

// Design selects the bulk-transfer protocol.
type Design int

// Bulk-transfer designs.
const (
	// ReadWrite is the paper's proposed design (§4): client advertises
	// write/reply chunks, server pushes with RDMA Write.
	ReadWrite Design = iota
	// ReadRead is the original design (§3): server advertises read chunks
	// in replies, client pulls and sends RDMA_DONE.
	ReadRead
	// ReplyFetch is the RFP-style server-reply-fetch design: the client
	// pre-registers a per-call reply slot (doorbell word + reply body) and
	// advertises it as the reply chunk; the server deposits the whole reply
	// with RDMA Writes — body first, doorbell last, relying on in-order
	// Write delivery — and posts no Send at all. The client detects the
	// deposit via the doorbell and recycles the server's parked staging with
	// RDMA_DONE. Server send processing disappears from the reply path; the
	// price is a remotely writable client-side MR per call in flight.
	ReplyFetch
)

func (d Design) String() string {
	switch d {
	case ReadRead:
		return "read-read"
	case ReplyFetch:
		return "reply-fetch"
	}
	return "read-write"
}

// ParseDesign is the inverse of Design.String.
func ParseDesign(name string) (Design, error) {
	for d := ReadWrite; d <= ReplyFetch; d++ {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("rpcrdma: unknown design %q", name)
}
