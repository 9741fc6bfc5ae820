package ibsim

import "repro/internal/des"

// SRQConfig sizes a shared receive queue.
type SRQConfig struct {
	// Depth bounds the posted receive WQEs; PostRecv beyond it fails.
	Depth int

	// Limit is the low watermark: when a take drops the available count
	// below it, the armed limit event fires (once per arming), telling the
	// consumer to repost buffers. Zero disables the watermark.
	Limit int
}

func (c *SRQConfig) defaults() {
	if c.Depth <= 0 {
		c.Depth = 256
	}
	if c.Limit < 0 {
		c.Limit = 0
	}
	if c.Limit >= c.Depth {
		c.Limit = c.Depth - 1
	}
}

// SRQ is a shared receive queue: one pooled stock of receive WQEs that any
// number of attached QPs draw from, instead of each connection pre-posting
// its own ring. This is the standard fix for per-connection receive memory
// growing linearly with connection count (the RDMAvisor observation): N
// connections share Depth buffers sized for the server's actual concurrency,
// not N×credits buffers sized for the worst case of every connection.
//
// The hardware-style limit event makes the pool self-refilling: software
// arms a watermark, and when the HCA's consumption crosses it the event
// fires exactly once, waking a refill thread to top the pool back up.
type SRQ struct {
	node *Node
	name string
	cfg  SRQConfig
	pool des.Ring[RecvWQE]

	limitArmed bool
	limitEv    *des.Event

	// pooledBytes is the receive capacity currently sitting in the pool;
	// commitBytes is its high-water mark — the ring the driver actually
	// allocated, which is what receive-side memory accounting reports.
	pooledBytes int64
	commitBytes int64

	// Stats.
	Posted      int64 // successful PostRecv calls
	PostFailed  int64 // PostRecv calls rejected at Depth
	Consumed    int64 // WQEs taken by arriving sends
	Starved     int64 // takes that found the pool empty (RNR at the QP)
	LimitEvents int64 // watermark crossings that fired the armed event
}

// NewSRQ creates a shared receive queue on the node. QPs join it with
// QP.AttachSRQ; attached QPs must not post to their own receive queues.
func NewSRQ(n *Node, name string, cfg SRQConfig) *SRQ {
	cfg.defaults()
	return &SRQ{node: n, name: name, cfg: cfg}
}

// Depth returns the configured pool bound.
func (s *SRQ) Depth() int { return s.cfg.Depth }

// Limit returns the configured low watermark.
func (s *SRQ) Limit() int { return s.cfg.Limit }

// Avail returns the number of posted receive WQEs currently in the pool.
func (s *SRQ) Avail() int { return s.pool.Len() }

// PostRecv adds a receive buffer to the shared pool. It reports whether the
// buffer was accepted; posting beyond Depth fails (the pool is already as
// full as it can get, so a refused repost is not a lost buffer).
func (s *SRQ) PostRecv(wrid uint64, capacity int) bool {
	if s.pool.Len() >= s.cfg.Depth {
		s.PostFailed++
		return false
	}
	s.pool.Push(RecvWQE{WRID: wrid, Cap: capacity})
	s.Posted++
	s.pooledBytes += int64(capacity)
	if s.pooledBytes > s.commitBytes {
		s.commitBytes = s.pooledBytes
	}
	return true
}

// CommittedBytes returns the high-water receive capacity ever pooled — the
// memory a driver would have allocated for this SRQ's ring.
func (s *SRQ) CommittedBytes() int64 { return s.commitBytes }

// ArmLimit arms the low-watermark event and returns it: the event fires the
// next time a take leaves fewer than Limit buffers available (immediately,
// if the pool is already below the watermark), then disarms. The consumer's
// refill loop waits on it, reposts, and re-arms — the IB SRQ limit
// asynchronous-event pattern.
func (s *SRQ) ArmLimit() *des.Event {
	s.limitEv = des.NewEvent(s.node.fab.Sim)
	s.limitArmed = true
	if s.pool.Len() < s.cfg.Limit {
		s.fireLimit()
	}
	return s.limitEv
}

func (s *SRQ) fireLimit() {
	s.limitArmed = false
	s.LimitEvents++
	s.node.fab.Counters.Inc("srq.limit")
	s.limitEv.Fire(s.pool.Len())
}

// take pops the next pooled WQE for an arriving send, firing the armed
// limit event when consumption crosses the watermark. It reports false when
// the pool is empty (the QP sees RNR, exactly as with an empty private
// receive queue).
func (s *SRQ) take() (RecvWQE, bool) {
	if s.pool.Len() == 0 {
		s.Starved++
		return RecvWQE{}, false
	}
	r := s.pool.Pop()
	s.Consumed++
	s.pooledBytes -= int64(r.Cap)
	if s.limitArmed && s.cfg.Limit > 0 && s.pool.Len() < s.cfg.Limit {
		s.fireLimit()
	}
	return r, true
}
