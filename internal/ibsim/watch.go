package ibsim

// WriteWatch observes incoming RDMA Writes landing in a watched address
// range — the doorbell primitive of the reply-fetch design. An RNIC raises
// no target-side completion for an inbound RDMA Write, so a consumer that
// expects a peer to deposit data (the RFP client waiting for its reply
// slot) must poll the memory itself. Real implementations spin on the
// doorbell word; the simulator models the poll loop's detection with a
// callback scheduled at the instant the overlapping Write is delivered, and
// the consumer charges its own polling cost from there.
//
// A WriteWatch is storage its owner provides, armed by HCA.WatchWrite, so
// that arming one allocates nothing. An armed watch fires at most once and
// disarms itself on firing; Cancel disarms one that has not fired. Either
// way it may be armed again.
type WriteWatch struct {
	hca   *HCA
	rkey  uint32
	lo    uint64
	hi    uint64
	fn    func(any)
	arg   any
	armed bool
	next  *WriteWatch // the next watch armed on the same rkey
}

// WatchWrite arms w over [addr, addr+length) of the region named by rkey:
// the first delivered RDMA Write that overlaps the range, once its data is
// placed, schedules fn(arg) at its delivery instant. w must not be armed.
func (h *HCA) WatchWrite(w *WriteWatch, rkey uint32, addr uint64, length int, fn func(any), arg any) {
	*w = WriteWatch{
		hca: h, rkey: rkey,
		lo: addr, hi: addr + uint64(length),
		fn: fn, arg: arg, armed: true,
	}
	if h.watches == nil {
		h.watches = make(map[uint32]*WriteWatch)
	}
	last := h.watches[rkey]
	if last == nil {
		h.watches[rkey] = w
		return
	}
	for last.next != nil {
		last = last.next
	}
	last.next = w
}

// Watches returns how many watches are armed on the HCA.
func (h *HCA) Watches() int {
	n := 0
	for _, w := range h.watches {
		for ; w != nil; w = w.next {
			n++
		}
	}
	return n
}

// Cancel disarms an armed watch; on any other it is a no-op.
func (w *WriteWatch) Cancel() {
	if !w.armed {
		return
	}
	w.armed = false
	h := w.hca
	if first := h.watches[w.rkey]; first == w {
		if w.next == nil {
			delete(h.watches, w.rkey)
		} else {
			h.watches[w.rkey] = w.next
		}
	} else {
		for o := first; o != nil; o = o.next {
			if o.next == w {
				o.next = w.next
				break
			}
		}
	}
	w.next = nil
}

// notifyWrite fires every watch overlapping a just-delivered RDMA Write.
// Called from the write delivery path after the data is placed; with no
// watches registered (every non-RFP workload) it is a nil-map lookup.
// Watches fire in arming order, keeping callbacks deterministic.
func (h *HCA) notifyWrite(rkey uint32, addr uint64, length int) {
	if h.watches == nil {
		return
	}
	w := h.watches[rkey]
	if w == nil {
		return
	}
	end := addr + uint64(length)
	s := h.node.fab.Sim
	var first, last *WriteWatch // the watches that stay armed
	for w != nil {
		next := w.next
		w.next = nil
		if end <= w.lo || addr >= w.hi {
			if last == nil {
				first = w
			} else {
				last.next = w
			}
			last = w
		} else {
			w.armed = false
			s.AtArg(s.Now(), w.fn, w.arg)
		}
		w = next
	}
	if first == nil {
		delete(h.watches, rkey)
	} else {
		h.watches[rkey] = first
	}
}
