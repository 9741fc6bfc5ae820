package oncrpc

// The duplicate request cache (DRC) every production NFS server carries:
// retransmitted calls (same XID from the same client) must not re-execute
// non-idempotent procedures — a replayed REMOVE would return ENOENT, a
// replayed WRITE could clobber newer data. The server replays the cached
// reply instead.
//
// The cache is bounded PER CLIENT (the Machine credential stands in for the
// client address, as real servers hash it), so one client churning XIDs
// cannot evict another client's replay window. Entries exist in two states:
//
//   - executing: the original call is still in a service handler. A
//     retransmission arriving now is dropped outright (Dispatch returns a
//     nil reply) — the original will answer, and answering twice would
//     duplicate the reply's side effects on the transport.
//   - completed: the reply is cached; a retransmission replays it.
//
// Services may implement IdempotencyClassifier to restrict caching to their
// non-idempotent procedures; re-executing an idempotent call (GETATTR,
// READ) is harmless and skipping the cache keeps bulk-carrying READ replies
// out of it — cached bulk references transport staging that is recycled
// after the first send, so replaying it would push stale bytes. Services
// without the classifier get every completed call cached.

// IdempotencyClassifier is optionally implemented by services whose
// procedures differ in replay safety. NonIdempotent(proc) returning true
// means a retransmission of proc must be answered from the cache, never
// re-executed.
type IdempotencyClassifier interface {
	NonIdempotent(proc uint32) bool
}

// clientKey identifies a request within one client's replay window.
type clientKey struct {
	xid  uint32
	prog uint32
	proc uint32
}

type drcEntry struct {
	key       clientKey
	executing bool
	reply     []byte
	bulk      *Bulk
}

// drcClient is one client's bounded FIFO replay window.
type drcClient struct {
	entries map[clientKey]*drcEntry
	order   []clientKey
}

// evict removes completed entries in FIFO order until at most target
// remain. Executing placeholders are never evicted: dropping one would let
// a retransmission re-execute a call that is still running. A single
// forward pass compacts order in place — the old rescan-from-the-head loop
// was O(n²) whenever executing placeholders sat at the FIFO head. If every
// entry is in flight the window transiently exceeds capacity; that is
// tolerated. It returns how many entries went, for the cache-wide count.
func (cl *drcClient) evict(target int) (removed int) {
	before := len(cl.entries)
	if before <= target {
		return 0
	}
	keep := cl.order[:0]
	for i, k := range cl.order {
		if len(cl.entries) > target && !cl.entries[k].executing {
			delete(cl.entries, k)
			continue
		}
		if len(cl.entries) <= target {
			// Done evicting: keep the rest of the window wholesale.
			keep = append(keep, cl.order[i:]...)
			break
		}
		keep = append(keep, k)
	}
	cl.order = keep
	return before - len(cl.entries)
}

type drcState int

const (
	drcMiss drcState = iota
	drcHit
	drcExecuting
)

// drc is the dispatcher's replay cache: per-client bounded FIFO windows.
type drc struct {
	capacity int
	clients  map[string]*drcClient
	entries  int // sum of len(entries) over clients, kept by begin and DropDRC

	Hits, Misses    int64
	InProgressDrops int64 // retransmissions of still-executing calls dropped
}

// EnableDRC attaches a duplicate request cache to the dispatcher; capacity
// bounds the cached replies per client machine. Must be called before
// serving.
func (d *Dispatcher) EnableDRC(capacity int) {
	if capacity <= 0 {
		capacity = 1024
	}
	d.drc = &drc{capacity: capacity, clients: make(map[string]*drcClient)}
}

// DRCStats returns (hits, misses), or zeros when no DRC is attached.
func (d *Dispatcher) DRCStats() (hits, misses int64) {
	if d.drc == nil {
		return 0, 0
	}
	return d.drc.Hits, d.drc.Misses
}

// DropDRC wipes the replay windows of every client — the DRC is volatile
// server memory and dies with a crash. Executing placeholders go too: the
// handlers running them die with the server, so nothing would ever commit
// them, and a stale placeholder would silently drop the client's replay
// after restart. Cumulative hit/miss counters survive (they are
// measurement, not server state). No-op without a DRC.
func (d *Dispatcher) DropDRC() {
	if d.drc != nil {
		d.drc.clients = make(map[string]*drcClient)
		d.drc.entries = 0
	}
}

// DRCEntries returns the total cached or executing entries across all
// client replay windows, zero without a DRC. Telemetry samples it on every
// tick, so it is a count kept where entries come and go, not a walk.
func (d *Dispatcher) DRCEntries() int {
	if d.drc == nil {
		return 0
	}
	return d.drc.entries
}

// DRCClients returns how many client replay windows exist, zero without a
// DRC. After DropDRC this must count only clients that have actually been
// served since the wipe — a commit racing the wipe must not resurrect an
// empty window.
func (d *Dispatcher) DRCClients() int {
	if d.drc == nil {
		return 0
	}
	return len(d.drc.clients)
}

// DRCInProgressDrops returns how many retransmissions were dropped because
// their original call was still executing.
func (d *Dispatcher) DRCInProgressDrops() int64 {
	if d.drc == nil {
		return 0
	}
	return d.drc.InProgressDrops
}

func (c *drc) client(machine string) *drcClient {
	cl, ok := c.clients[machine]
	if !ok {
		cl = &drcClient{entries: make(map[clientKey]*drcEntry)}
		c.clients[machine] = cl
	}
	return cl
}

func (c *drc) lookup(machine string, k clientKey) (*drcEntry, drcState) {
	cl, ok := c.clients[machine]
	if !ok {
		c.Misses++
		return nil, drcMiss
	}
	e, ok := cl.entries[k]
	if !ok {
		c.Misses++
		return nil, drcMiss
	}
	if e.executing {
		c.InProgressDrops++
		return e, drcExecuting
	}
	c.Hits++
	return e, drcHit
}

// begin installs an executing placeholder before the service handler runs,
// closing the window where a retransmission of an in-flight call would
// double-execute.
func (c *drc) begin(machine string, k clientKey) {
	cl := c.client(machine)
	if _, dup := cl.entries[k]; dup {
		return
	}
	c.entries += 1 - cl.evict(c.capacity-1)
	cl.entries[k] = &drcEntry{key: k, executing: true}
	cl.order = append(cl.order, k)
}

// commit completes a placeholder with the reply to replay for future
// retransmissions. It looks the client window up WITHOUT creating: if
// DropDRC wiped the windows while this call was executing (crash path), the
// placeholder is gone and creating an empty drcClient here would leak it —
// nothing ever removes a clientless window, and it skews DRCClients.
//
// The entry keeps an exact copy of the reply message: reply is a slice of a
// wire the transport posts, and keeping it would pin that buffer's header
// room and spare capacity for as long as the entry lives.
func (c *drc) commit(machine string, k clientKey, reply []byte, bulk *Bulk) {
	cl, ok := c.clients[machine]
	if !ok {
		return
	}
	if e, ok := cl.entries[k]; ok {
		e.executing = false
		e.reply = make([]byte, len(reply))
		copy(e.reply, reply)
		if bulk != nil {
			b := *bulk // a copy: the descriptor is the transport's, which reuses it
			e.bulk = &b
		}
	}
}
