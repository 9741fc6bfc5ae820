package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace_event exporter. The output loads in chrome://tracing and
// Perfetto: one "process" row per Track (node, node/qp, process name), one
// "thread" per layer within it, spans as complete ("X") events and point
// events as instants ("i"). Begin/End pairs are matched by
// (Layer, Kind, Track, ID); a Begin left open at the end of the stream is
// closed at the last timestamp (the simulation stopped with the interval
// still live — an open MR, a parked reply), and an End without a Begin is
// dropped (its opening edge was overwritten by ring wrap-around).

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name  string     `json:"name"`
	Cat   string     `json:"cat,omitempty"`
	Phase string     `json:"ph"`
	TS    float64    `json:"ts"` // microseconds
	Dur   *float64   `json:"dur,omitempty"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Scope string     `json:"s,omitempty"`
	Args  *chromeArg `json:"args,omitempty"`
}

type chromeArg struct {
	Name      string `json:"name,omitempty"`
	ID        uint64 `json:"id,omitempty"`
	Arg       int64  `json:"arg,omitempty"`
	Kind      string `json:"kind,omitempty"`
	SortIndex *int   `json:"sort_index,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

type pairKey struct {
	layer Layer
	kind  Kind
	track string
	id    uint64
}

// WriteChrome renders events as Chrome trace_event JSON.
func WriteChrome(w io.Writer, events []Event) error {
	pids := map[string]int{}
	pidOf := func(track string) int {
		if p, ok := pids[track]; ok {
			return p
		}
		p := len(pids) + 1
		pids[track] = p
		return p
	}

	var out []chromeEvent
	span := func(e *Event, start, end int64) {
		d := float64(end-start) / 1e3
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Layer.String(), Phase: "X",
			TS: float64(start) / 1e3, Dur: &d,
			PID: pidOf(e.Track), TID: int(e.Layer),
			Args: &chromeArg{ID: e.ID, Arg: e.Arg, Kind: e.Kind.String()},
		})
	}

	var lastT int64
	for i := range events {
		if t := events[i].End(); t > lastT {
			lastT = t
		}
	}

	open := map[pairKey][]int{} // indices of the Begins still open, per pair
	for i := range events {
		e := &events[i]
		switch e.Phase {
		case PhaseSpan:
			span(e, e.T, e.T+e.Dur)
		case PhaseBegin:
			k := pairKey{e.Layer, e.Kind, e.Track, e.ID}
			open[k] = append(open[k], i)
		case PhaseEnd:
			k := pairKey{e.Layer, e.Kind, e.Track, e.ID}
			if st := open[k]; len(st) > 0 {
				b := &events[st[len(st)-1]]
				open[k] = st[:len(st)-1]
				span(b, b.T, e.T)
			}
		case PhaseInstant:
			out = append(out, chromeEvent{
				Name: e.Name, Cat: e.Layer.String(), Phase: "i",
				TS: float64(e.T) / 1e3, Scope: "t",
				PID: pidOf(e.Track), TID: int(e.Layer),
				Args: &chromeArg{ID: e.ID, Arg: e.Arg, Kind: e.Kind.String()},
			})
		}
	}
	// Close intervals still live when the simulation stopped, in stream
	// order: the order out is built in decides equal-time ties and the pids.
	var live []int
	for _, st := range open {
		live = append(live, st...)
	}
	sort.Ints(live)
	for _, i := range live {
		span(&events[i], events[i].T, lastT)
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })

	// Name the rows: track strings as processes, layers as threads.
	meta := make([]chromeEvent, 0, len(pids)*2)
	tracks := make([]string, 0, len(pids))
	for t := range pids {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	seenTID := map[[2]int]bool{}
	for i := range out {
		seenTID[[2]int{out[i].PID, out[i].TID}] = true
	}
	for ti, t := range tracks {
		// sort_index pins the viewer's row order to the sorted track names
		// (pids are assigned in first-appearance order, which would otherwise
		// scatter a node's shard tracks) and the layers to stack order.
		pidx := ti + 1
		meta = append(meta, chromeEvent{
			Name: "process_name", Phase: "M", PID: pids[t],
			Args: &chromeArg{Name: t},
		})
		meta = append(meta, chromeEvent{
			Name: "process_sort_index", Phase: "M", PID: pids[t],
			Args: &chromeArg{SortIndex: &pidx},
		})
		for l := Layer(0); l < numLayers; l++ {
			if seenTID[[2]int{pids[t], int(l)}] {
				tidx := int(l)
				meta = append(meta, chromeEvent{
					Name: "thread_name", Phase: "M", PID: pids[t], TID: int(l),
					Args: &chromeArg{Name: l.String()},
				})
				meta = append(meta, chromeEvent{
					Name: "thread_sort_index", Phase: "M", PID: pids[t], TID: int(l),
					Args: &chromeArg{SortIndex: &tidx},
				})
			}
		}
	}

	doc := chromeDoc{TraceEvents: append(meta, out...), DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
