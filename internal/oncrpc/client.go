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

// argsHint is what a call's buffer holds for its arguments: those of every
// NFS call but SETATTR and the calls naming a file of more than eight bytes
// or so (CREATE, MKDIR, RENAME). Longer arguments grow the buffer.
const argsHint = 64

// newWire returns a buffer for one message: room zero bytes kept free for a
// transport header, and capacity for n more behind them.
func newWire(room, n int) []byte { return make([]byte, room, room+n) }

// Call marshals and performs one RPC. args appends the procedure's
// arguments to the call (nil for none); it is called before Call returns and
// not kept. Call returns the inline result bytes and the number of payload
// bytes placed into opts.RecvBulk.
func (c *Client) Call(p *des.Proc, proc uint32, args func(*xdr.Encoder), opts CallOpts) (results []byte, bulkLen int, err error) {
	c.nextXID++
	xid := c.nextXID
	req := &Request{
		XID:          xid,
		SendBulk:     opts.SendBulk,
		RecvBulk:     opts.RecvBulk,
		LongReplyCap: opts.LongReplyCap,
		DirectIO:     opts.DirectIO,
	}
	if f, ok := c.transport.(Framer); ok {
		req.Room = f.Room(req)
	}
	hdr := c.call
	hdr.XID, hdr.Proc = xid, proc
	req.wire.Reset(newWire(req.Room, hdr.size()+argsHint))
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
