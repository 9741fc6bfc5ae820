package oncrpc

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/xdr"
)

// Client issues calls for one (program, version) over a Transport.
type Client struct {
	call      CallHeader // what every call's header carries: program, version, credential
	transport Transport
	nextXID   uint32
}

// NewClient creates a client. The initial XID is randomized in real stacks
// to survive server reboots; the simulator seeds it from the program number
// for determinism.
func NewClient(transport Transport, prog, vers uint32, cred Auth) *Client {
	return &Client{call: CallHeader{Prog: prog, Vers: vers, Cred: cred}, transport: transport, nextXID: prog<<8 + vers}
}

// CallOpts carries the bulk-data descriptors for one call.
type CallOpts struct {
	SendBulk     *Bulk
	RecvBulk     *Bulk
	LongReplyCap int
	DirectIO     bool
}

// Call marshals and performs one RPC. args appends the procedure's
// arguments to the call (nil for none); it is called before Call returns and
// not kept. The call is marshalled inside its Request (callStore), behind
// the room a Framer asks for, in a Request the Framer allocated. Call returns
// the inline result bytes and the number of payload bytes placed into
// opts.RecvBulk.
func (c *Client) Call(p *des.Proc, proc uint32, args func(*xdr.Encoder), opts CallOpts) (results []byte, bulkLen int, err error) {
	c.nextXID++
	xid := c.nextXID
	f, framer := c.transport.(Framer)
	var req *Request
	if framer {
		req = f.NewRequest()
	} else {
		req = new(Request)
	}
	req.XID, req.DirectIO = xid, opts.DirectIO
	req.SendBulk, req.RecvBulk, req.LongReplyCap = opts.SendBulk, opts.RecvBulk, opts.LongReplyCap
	if framer {
		req.Room = f.Room(req)
	}
	hdr := c.call
	hdr.XID, hdr.Proc = xid, proc
	wire := req.store[:]
	if req.Room > len(wire) {
		wire = make([]byte, req.Room)
	}
	req.wire.Reset(wire[:req.Room])
	appendCall(&req.wire, &hdr)
	if args != nil {
		args(&req.wire)
	}
	req.Header = req.wire.Bytes()[req.Room:]
	resp, err := c.transport.Roundtrip(p, req)
	if err != nil {
		return nil, 0, err
	}
	gotXID, stat, results, err := DecodeReply(resp.Header)
	if err != nil {
		return nil, 0, err
	}
	if gotXID != xid {
		return nil, 0, fmt.Errorf("%w: got %#x want %#x", ErrXIDMismatch, gotXID, xid)
	}
	if stat != Success {
		return nil, 0, fmt.Errorf("oncrpc: call rejected: %v", stat)
	}
	return results, resp.BulkLen, nil
}

// Close shuts down the underlying transport.
func (c *Client) Close() { c.transport.Close() }

// SetTransport swaps the transport under the client, preserving the XID
// counter and credentials — the reconnect path. XID continuity matters:
// restarting XIDs after a reconnect would collide with the server's
// duplicate request cache and replay stale replies.
func (c *Client) SetTransport(t Transport) { c.transport = t }
