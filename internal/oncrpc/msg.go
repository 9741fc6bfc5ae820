// Package oncrpc implements the ONC Remote Procedure Call protocol
// (RFC 1831): call and reply message encoding, AUTH_NONE / AUTH_SYS
// credentials, a client with XID management, and a server-side program
// registry. Transports — the RPC/RDMA transport that is the subject of the
// paper, and the stream transport used by the NFS/TCP baselines — plug in
// underneath through the Transport interface.
package oncrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// RPC protocol constants (RFC 1831).
const (
	RPCVersion = 2

	msgTypeCall  = 0
	msgTypeReply = 1

	replyStatAccepted = 0
	replyStatDenied   = 1

	// Why a call is denied: its reject_stat and, for AUTH_ERROR, auth_stat.
	rejectRPCMismatch = 0
	rejectAuthError   = 1
	authBadCred       = 1
	authBadVerf       = 3
)

// AcceptStat is the accepted-reply status.
type AcceptStat uint32

// Accepted-reply status values.
const (
	Success      AcceptStat = 0
	ProgUnavail  AcceptStat = 1
	ProgMismatch AcceptStat = 2
	ProcUnavail  AcceptStat = 3
	GarbageArgs  AcceptStat = 4
	SystemErr    AcceptStat = 5
)

func (s AcceptStat) String() string {
	switch s {
	case Success:
		return "SUCCESS"
	case ProgUnavail:
		return "PROG_UNAVAIL"
	case ProgMismatch:
		return "PROG_MISMATCH"
	case ProcUnavail:
		return "PROC_UNAVAIL"
	case GarbageArgs:
		return "GARBAGE_ARGS"
	case SystemErr:
		return "SYSTEM_ERR"
	}
	return fmt.Sprintf("accept_stat(%d)", uint32(s))
}

// Errors surfaced by the client.
var (
	ErrDenied      = errors.New("oncrpc: call denied")
	ErrBadReply    = errors.New("oncrpc: malformed reply")
	ErrXIDMismatch = errors.New("oncrpc: reply XID mismatch")
)

// AuthFlavor identifies a credential flavour.
type AuthFlavor uint32

// Credential flavours.
const (
	AuthNone AuthFlavor = 0
	AuthSys  AuthFlavor = 1
)

// Auth is an RPC credential/verifier.
type Auth struct {
	Flavor AuthFlavor
	// AUTH_SYS fields.
	Machine string
	UID     uint32
	GID     uint32
	GIDs    []uint32
	Stamp   uint32
}

// What a message is rejected with: made once, so that rejecting one costs the
// host nothing. errBadAuth rejects a credential, errBadVerf a verifier, that
// is not the canonical encoding of a flavour this package speaks: only
// AUTH_NONE with an empty body and an AUTH_SYS body holding exactly its
// fields, at most maxGIDs of them, decode.
var (
	errBadAuth    = errors.New("oncrpc: malformed or unsupported credential")
	errBadVerf    = errors.New("oncrpc: malformed or unsupported verifier")
	errNotCall    = fmt.Errorf("%w: message type is not CALL", ErrBadReply)
	errNotReply   = fmt.Errorf("%w: message type is not REPLY", ErrBadReply)
	errRPCVersion = fmt.Errorf("%w: rpc version is not %d", ErrBadReply, RPCVersion)
)

// maxGIDs bounds an AUTH_SYS credential's gid list (RFC 5531 appendix A).
const maxGIDs = 16

// wireSize is the encoded length of the opaque_auth structure.
func (a *Auth) wireSize() int {
	if a.Flavor != AuthSys {
		return 8
	}
	return 8 + 20 + (len(a.Machine)+3)&^3 + 4*len(a.GIDs)
}

// encode writes the opaque_auth structure. The AUTH_SYS body is marshaled in
// place behind a length word patched in afterwards, not into a buffer of its
// own that is then copied.
func (a *Auth) encode(e *xdr.Encoder) {
	e.Uint32(uint32(a.Flavor))
	e.Uint32(0) // body length: zero unless AUTH_SYS
	if a.Flavor != AuthSys {
		return
	}
	start := e.Len()
	e.Uint32(a.Stamp)
	e.String(a.Machine)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint32(uint32(len(a.GIDs)))
	for _, g := range a.GIDs {
		e.Uint32(g)
	}
	binary.BigEndian.PutUint32(e.Bytes()[start-4:], uint32(e.Len()-start))
}

// decodeAuth decodes an opaque_auth into a, all but an AUTH_SYS body's
// machine name and gid list: those it returns as they lie in the frame, for
// a.setSys to copy out once the whole message has decoded, so that a message
// that does not decode allocates nothing. A body that the frame holds but that
// is not one decodeAuth accepts is errBadAuth.
func decodeAuth(d *xdr.Decoder, a *Auth) (machine, gids []byte, err error) {
	f, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	a.Flavor = AuthFlavor(f)
	body, err := d.Opaque()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case a.Flavor == AuthNone && len(body) == 0:
		return nil, nil, nil
	case a.Flavor != AuthSys:
		return nil, nil, errBadAuth
	}
	bd := xdr.NewDecoder(body)
	if a.Stamp, err = bd.Uint32(); err != nil {
		return nil, nil, errBadAuth
	}
	if machine, err = bd.Opaque(); err != nil {
		return nil, nil, errBadAuth
	}
	if a.UID, err = bd.Uint32(); err != nil {
		return nil, nil, errBadAuth
	}
	if a.GID, err = bd.Uint32(); err != nil {
		return nil, nil, errBadAuth
	}
	n, err := bd.Uint32()
	if err != nil || n > maxGIDs {
		return nil, nil, errBadAuth
	}
	if gids, err = bd.FixedOpaque(4 * int(n)); err != nil || bd.Remaining() != 0 {
		return nil, nil, errBadAuth
	}
	return machine, gids, nil
}

// setSys copies out what decodeAuth left in the frame. A machine name equal
// to peer is peer: an honest client names itself as the transport knows it,
// and comparing does not allocate. Any other name is a string of its own;
// nothing is interned, so a hostile client cannot grow state here.
func (a *Auth) setSys(machine, gids []byte, peer string) {
	if string(machine) == peer {
		a.Machine = peer
	} else {
		a.Machine = string(machine)
	}
	if len(gids) > 0 {
		a.GIDs = make([]uint32, len(gids)/4)
		for i := range a.GIDs {
			a.GIDs[i] = binary.BigEndian.Uint32(gids[4*i:])
		}
	}
}

// CallHeader is the decoded fixed part of an RPC call.
type CallHeader struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred Auth
	Verf Auth
}

// size is the encoded length of the call without its arguments.
func (h *CallHeader) size() int { return 24 + h.Cred.wireSize() + h.Verf.wireSize() }

// appendCall marshals the call message up to its arguments, which the caller
// appends behind it.
func appendCall(e *xdr.Encoder, h *CallHeader) {
	e.Uint32(h.XID)
	e.Uint32(msgTypeCall)
	e.Uint32(RPCVersion)
	e.Uint32(h.Prog)
	e.Uint32(h.Vers)
	e.Uint32(h.Proc)
	h.Cred.encode(e)
	h.Verf.encode(e)
}

// EncodeCall marshals an RPC call message: header followed by the
// pre-marshaled procedure arguments.
func EncodeCall(h *CallHeader, args []byte) []byte {
	e := xdr.NewEncoder(make([]byte, 0, h.size()+len(args)))
	appendCall(e, h)
	return append(e.Bytes(), args...)
}

// decodeCall unmarshals an RPC call message into h, returning the argument
// bytes that follow the header. An AUTH_SYS machine name equal to peer is
// peer (Auth.setSys). Only a message that decodes allocates: its machine
// names and gid lists.
func decodeCall(h *CallHeader, msg []byte, peer string) ([]byte, error) {
	d := xdr.NewDecoder(msg)
	var err error
	if h.XID, err = d.Uint32(); err != nil {
		return nil, err
	}
	mt, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if mt != msgTypeCall {
		return nil, errNotCall
	}
	rv, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if rv != RPCVersion {
		return nil, errRPCVersion
	}
	if h.Prog, err = d.Uint32(); err != nil {
		return nil, err
	}
	if h.Vers, err = d.Uint32(); err != nil {
		return nil, err
	}
	if h.Proc, err = d.Uint32(); err != nil {
		return nil, err
	}
	credMachine, credGIDs, err := decodeAuth(d, &h.Cred)
	if err != nil {
		return nil, err
	}
	verfMachine, verfGIDs, err := decodeAuth(d, &h.Verf)
	if err == errBadAuth {
		err = errBadVerf
	}
	if err != nil {
		return nil, err
	}
	h.Cred.setSys(credMachine, credGIDs, peer)
	h.Verf.setSys(verfMachine, verfGIDs, peer)
	return msg[d.Offset():], nil
}

// DecodeCall unmarshals an RPC call message, returning the header and the
// remaining argument bytes.
func DecodeCall(msg []byte) (*CallHeader, []byte, error) {
	var h CallHeader
	args, err := decodeCall(&h, msg, "")
	if err != nil {
		return nil, nil, err
	}
	out := h // only a header that decoded reaches the heap
	return &out, args, nil
}

// denial returns what follows reply_stat in the MSG_DENIED reply (RFC 5531)
// owed to a call decodeCall rejected with err once its XID had decoded: for
// an RPC version other than 2, RPC_MISMATCH and 2 as the lowest and highest
// version spoken; for a credential or verifier not accepted, AUTH_ERROR and
// AUTH_BADCRED or AUTH_BADVERF. Any other rejection is of a frame that is not
// a call, owed nothing: denial returns nil.
func denial(err error) []uint32 {
	switch err {
	case errRPCVersion:
		return deniedVersion
	case errBadAuth:
		return deniedCred
	case errBadVerf:
		return deniedVerf
	}
	return nil
}

var (
	deniedVersion = []uint32{rejectRPCMismatch, RPCVersion, RPCVersion}
	deniedCred    = []uint32{rejectAuthError, authBadCred}
	deniedVerf    = []uint32{rejectAuthError, authBadVerf}
)

// replyPrefix is the encoded length of an accepted reply up to its results:
// XID, message type, reply status, an AUTH_NONE verifier and the accept
// status, which is its last word.
const replyPrefix = 24

// appendReply marshals an accepted reply up to its results, which the caller
// appends behind it.
func appendReply(e *xdr.Encoder, xid uint32, stat AcceptStat) {
	e.Uint32(xid)
	e.Uint32(msgTypeReply)
	e.Uint32(replyStatAccepted)
	(&Auth{Flavor: AuthNone}).encode(e) // verifier
	e.Uint32(uint32(stat))
}

// EncodeReply marshals an accepted RPC reply with the given status and
// pre-marshaled results.
func EncodeReply(xid uint32, stat AcceptStat, results []byte) []byte {
	e := xdr.NewEncoder(make([]byte, 0, replyPrefix+len(results)))
	appendReply(e, xid, stat)
	return append(e.Bytes(), results...)
}

// DecodeReply unmarshals an RPC reply, returning the XID, accept status and
// remaining result bytes.
func DecodeReply(msg []byte) (xid uint32, stat AcceptStat, results []byte, err error) {
	d := xdr.NewDecoder(msg)
	if xid, err = d.Uint32(); err != nil {
		return
	}
	mt, err := d.Uint32()
	if err != nil {
		return
	}
	if mt != msgTypeReply {
		err = errNotReply
		return
	}
	rs, err := d.Uint32()
	if err != nil {
		return
	}
	if rs == replyStatDenied {
		err = ErrDenied
		return
	}
	var verf Auth
	if _, _, err = decodeAuth(d, &verf); err != nil {
		return
	}
	st, err := d.Uint32()
	if err != nil {
		return
	}
	stat = AcceptStat(st)
	results = msg[d.Offset():]
	return
}
