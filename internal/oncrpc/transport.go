package oncrpc

import (
	"repro/internal/des"
	"repro/internal/xdr"
)

// Bulk describes a large data payload that capable transports move by
// direct data placement (RDMA chunks) instead of inline XDR, mirroring the
// page-list portion of the kernel's xdr_buf.
//
// Data may be nil when the simulation runs in phantom-data mode; Len is
// always authoritative. Handle carries a transport- or layer-specific
// placement token (for the simulator: the *ibsim.Buffer backing the
// payload and its offset), opaque to this package.
type Bulk struct {
	Data   []byte
	Len    int
	Handle any
	// Offset of the payload within the backing Handle buffer.
	Off int
}

// NewBulk builds a Bulk over materialized bytes.
func NewBulk(data []byte) *Bulk {
	return &Bulk{Data: data, Len: len(data)}
}

// Request is one RPC exchange as seen by a transport.
type Request struct {
	XID uint32

	// DirectIO marks RecvBulk as application memory eligible for the
	// zero-copy direct-I/O placement path (no staging copy at the client).
	DirectIO bool
	framed   bool // Frame handed out the room (kept beside XID: one word)

	// Header is the fully marshaled RPC call (header + inline args).
	Header []byte

	// Room is how many bytes Call kept free in front of Header, in the same
	// buffer, for a Framer to write its own header into (zero otherwise).
	Room int

	// SendBulk is payload the server must obtain before executing the
	// procedure (an NFS WRITE's data). RDMA transports advertise it as a
	// read chunk list for the server to pull; stream transports append it
	// inline.
	SendBulk *Bulk

	// RecvBulk, when non-nil, provides placement for the procedure's reply
	// payload (an NFS READ's data). Len gives the capacity. RDMA transports
	// advertise it (Read-Write design) or pull into it (Read-Read design);
	// stream transports copy inline reply data into it.
	RecvBulk *Bulk

	// LongReplyCap, when > 0, announces that the inline reply may exceed
	// the inline threshold (READDIR/READLINK) and gives the maximum
	// expected size, letting RDMA transports set up a reply chunk.
	LongReplyCap int

	// State is the transport's own state for this call when the transport
	// made the request (Framer.NewRequest), nil otherwise: what lets it keep
	// the two in one object.
	State any

	// wire is where Call marshals the call: Room bytes, then Header. It
	// appends to store, so that a call that fits there allocates nothing but
	// the request; one that outgrows it moves by append.
	wire  xdr.Encoder
	store [callStore]byte
}

// callStore is how many bytes a Request holds for its call inline: the
// room, the header and the arguments of every NFS call but SETATTR and those
// naming a file of more than two or three dozen bytes. It makes a Request
// 288 bytes, one size class. A posted call is read by reference at the
// server, so a request is never reused: it lives as long as its call.
const callStore = 184

// Frame returns the call behind its room, for a Framer to write its header
// into the first Room bytes in place. What a transport posts belongs to the
// fabric and is never written again, so framing consumes the room: a second
// Frame — a replay on a fresh connection, while the first Send may still sit
// undecoded at the server — gets a copy, as does a request Call did not
// build.
func (r *Request) Frame() []byte {
	if buf := r.wire.Bytes(); !r.framed && len(buf) == r.Room+len(r.Header) {
		r.framed = true
		return buf
	}
	return append(make([]byte, r.Room, r.Room+len(r.Header)), r.Header...)
}

// Response is the transport-level result of a Request.
type Response struct {
	// Header is the marshaled RPC reply (header + inline results).
	Header []byte

	// BulkLen is the number of payload bytes placed into RecvBulk.
	BulkLen int
}

// Transport performs RPC exchanges for a client.
type Transport interface {
	// Roundtrip sends the call and blocks until the matching reply arrives
	// and all payload placement for it has completed.
	Roundtrip(p *des.Proc, req *Request) (*Response, error)
	// Close releases transport resources.
	Close()
}

// A Framer is a Transport that puts a header of its own in front of every
// call (RPC/RDMA). Call marshals the call Room(req) bytes into its buffer so
// that the transport writes that header in place (Request.Frame) instead of
// copying the call behind it. Room sees the request before Header is built.
//
// NewRequest returns the zero Request Call fills in, allocated with the
// transport's state for the call (Request.State), as one object.
type Framer interface {
	Room(req *Request) int
	NewRequest() *Request
}

// ServerRequest is one received call as seen by the service dispatcher.
type ServerRequest struct {
	Header CallHeader

	// Args is the inline argument bytes following the RPC call header.
	Args []byte

	// Bulk is the pulled SendBulk payload (nil when the call carried none).
	Bulk *Bulk

	// RecvBulkCap is the client's advertised reply-payload capacity
	// (0 when the client advertised no placement).
	RecvBulkCap int

	// ReplyBuf, when non-nil, is a transport-provided staging buffer the
	// service fills with the reply payload (the server-side buffer that the
	// paper's registration flow allocates at call receipt and registers
	// when control returns from the file system). Services that produce a
	// payload must use it when present and set ServerResponse.Bulk to it.
	ReplyBuf *Bulk

	// Reply is the reply under construction: Dispatch leaves the transport's
	// room and the accepted-reply header in it, and Handle appends the
	// procedure's results.
	Reply xdr.Encoder
}

// ServerResponse is what a service hands back to the server transport.
type ServerResponse struct {
	Stat AcceptStat

	// Bulk is the reply payload to place at the client, if any.
	Bulk *Bulk
}

// Service handles decoded calls for one (program, version).
type Service interface {
	Name() string
	Program() uint32
	Version() uint32
	// Handle executes one procedure, appending its results to req.Reply. It
	// runs on a server worker process and may block on simulated I/O.
	Handle(p *des.Proc, req *ServerRequest) ServerResponse
}

// ResultsSizer is optionally implemented by services that know how large a
// procedure's results are: Dispatch sizes the reply buffer by it, so that
// results that fit append without growing it.
type ResultsSizer interface {
	ResultsSize(proc uint32) int
}
