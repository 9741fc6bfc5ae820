package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.Span(0, 10, LayerDES, KindBlocked, "t", "n", 1, 0)
	tr.Begin(0, LayerIbsim, KindWQE, "t", "n", 1, 0)
	tr.End(1, LayerIbsim, KindWQE, "t", "n", 1, 0)
	tr.Instant(2, LayerRPC, KindTimeout, "t", "n", 1, 0)
	tr.Observe("h", 1.5)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil ||
		tr.Histogram("h") != nil || tr.Histograms() != nil {
		t.Fatal("nil tracer must behave as empty")
	}
}

func TestRingWrapKeepsNewestInOrder(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Instant(int64(i), LayerDES, KindSpawn, "t", "n", uint64(i), 0)
	}
	if got, want := tr.Len(), 4; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := tr.Dropped(), uint64(6); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.T != want {
			t.Fatalf("event %d has T=%d, want %d (oldest-first order)", i, e.T, want)
		}
	}
}

func TestEventsBeforeWrap(t *testing.T) {
	tr := New(8)
	tr.Instant(1, LayerDES, KindSpawn, "t", "a", 1, 0)
	tr.Instant(2, LayerDES, KindSpawn, "t", "b", 2, 0)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].T != 1 || evs[1].T != 2 {
		t.Fatalf("Events = %+v, want two events in order", evs)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
}

func TestEmitIsAllocationFree(t *testing.T) {
	tr := New(64)
	ev := Event{T: 1, Track: "t", Name: "n", Layer: LayerIbsim, Kind: KindWQE, Phase: PhaseBegin}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(ev)
		tr.Span(0, 5, LayerDES, KindBlocked, "t", "n", 7, 0)
		tr.Instant(3, LayerRPC, KindDoorbell, "t", "n", 7, 0)
	})
	if allocs != 0 {
		t.Fatalf("hot-path emission allocates %.1f times per run, want 0", allocs)
	}
}

func TestHistogramsSortedAndNamed(t *testing.T) {
	tr := New(4)
	tr.Observe("zeta", 10)
	tr.Observe("alpha", 20)
	tr.Observe("zeta", 30)
	hs := tr.Histograms()
	if len(hs) != 2 || hs[0].Name != "alpha" || hs[1].Name != "zeta" {
		t.Fatalf("Histograms = %v, want sorted [alpha zeta]", hs)
	}
	if hs[1].Hist.Count() != 2 {
		t.Fatalf("zeta count = %d, want 2", hs[1].Hist.Count())
	}
	if tr.Histogram("alpha") != hs[0].Hist {
		t.Fatal("Histogram(name) must return the registered histogram")
	}
	if tr.Histogram("missing") != nil {
		t.Fatal("Histogram of an unknown name must be nil")
	}
}

// chromeFile mirrors the JSON document WriteChrome emits.
type chromeFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromePairsAndValidJSON(t *testing.T) {
	tr := New(64)
	tr.Span(1000, 3000, LayerRPC, KindRPC, "client0", "rpc", 7, 0)
	tr.Begin(1200, LayerIbsim, KindWQE, "client0/qp1", "SEND", 1, 64)
	tr.End(2200, LayerIbsim, KindWQE, "client0/qp1", "SEND", 1, 0)
	tr.Instant(1500, LayerRPC, KindTimeout, "client0", "timeout", 7, 0)
	// Unmatched Begin: must be closed at the stream's last timestamp, not
	// dropped or emitted as a dangling "B".
	tr.Begin(2500, LayerIbsim, KindCQE, "server", "RECV", 9, 0)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 {
				t.Fatalf("span %q has negative duration", e.Name)
			}
		case "i":
			instants++
		case "B", "E":
			t.Fatalf("output contains unpaired phase %q", e.Ph)
		}
	}
	if spans != 3 {
		t.Fatalf("got %d complete spans, want 3 (span + B/E pair + closed orphan)", spans)
	}
	if instants != 1 {
		t.Fatalf("got %d instants, want 1", instants)
	}
}

func TestSummaryAggregates(t *testing.T) {
	tr := New(64)
	tr.Span(0, 1000, LayerDES, KindBlocked, "p1", "blocked", 1, 0)
	tr.Span(500, 2500, LayerDES, KindBlocked, "p2", "blocked", 2, 0)
	tr.Instant(700, LayerRPC, KindTimeout, "client0", "timeout", 3, 0)
	s := Summary(tr.Events())
	if !strings.Contains(s, "blocked") || !strings.Contains(s, "n=2") {
		t.Fatalf("summary missing aggregated span row:\n%s", s)
	}
	if !strings.Contains(s, "timeout") {
		t.Fatalf("summary missing instant section:\n%s", s)
	}
}

func TestCheckWQECQE(t *testing.T) {
	tr := New(64)
	tr.Begin(10, LayerIbsim, KindWQE, "c/qp1", "SEND", 1, 0)
	tr.End(20, LayerIbsim, KindWQE, "c/qp1", "SEND", 1, 0)
	tr.Begin(15, LayerIbsim, KindWQE, "c/qp1", "RDMA_READ", 2, 0)
	tr.End(40, LayerIbsim, KindWQE, "c/qp1", "RDMA_READ", 2, 0)
	if err := CheckWQECQE(tr.Events()); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}

	bad := New(64)
	bad.Begin(10, LayerIbsim, KindWQE, "c/qp1", "SEND", 1, 0) // never completes
	bad.End(20, LayerIbsim, KindWQE, "c/qp1", "SEND", 2, 0)   // completes without post
	err := CheckWQECQE(bad.Events())
	if err == nil {
		t.Fatal("missing completion and orphan completion not detected")
	}
	for _, want := range []string{"never completed", "without a post"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}

	dup := New(64)
	dup.Begin(10, LayerIbsim, KindWQE, "c/qp1", "SEND", 1, 0)
	dup.Begin(11, LayerIbsim, KindWQE, "c/qp1", "SEND", 1, 0)
	if err := CheckWQECQE(dup.Events()); err == nil || !strings.Contains(err.Error(), "posted twice") {
		t.Fatalf("duplicate post not detected: %v", err)
	}
}

func TestCheckExposureBounds(t *testing.T) {
	const remoteRead = uint8(1 << 1)
	good := New(64)
	good.Span(100, 500, LayerRPC, KindRPC, "client0", "rpc", 0x42, 0)
	good.Begin(110, LayerIbsim, KindMR, "client0", "mr", 0x99, MRArg(remoteRead, 4096))
	good.Instant(120, LayerRPC, KindExpose, "client0", "expose", 0x42, 0x99)
	good.End(400, LayerIbsim, KindMR, "client0", "mr", 0x99, 0)
	if err := CheckExposureBounds(good.Events()); err != nil {
		t.Fatalf("bounded exposure rejected: %v", err)
	}

	// The MR is deregistered after the RPC span ends: a lifetime leak.
	leak := New(64)
	leak.Span(100, 500, LayerRPC, KindRPC, "client0", "rpc", 0x42, 0)
	leak.Begin(110, LayerIbsim, KindMR, "client0", "mr", 0x99, MRArg(remoteRead, 4096))
	leak.Instant(120, LayerRPC, KindExpose, "client0", "expose", 0x42, 0x99)
	leak.End(900, LayerIbsim, KindMR, "client0", "mr", 0x99, 0)
	if err := CheckExposureBounds(leak.Events()); err == nil || !strings.Contains(err.Error(), "outlives") {
		t.Fatalf("exposure outliving its RPC not detected: %v", err)
	}

	// Exposure with no live MR at all.
	ghost := New(64)
	ghost.Span(100, 500, LayerRPC, KindRPC, "client0", "rpc", 0x42, 0)
	ghost.Instant(120, LayerRPC, KindExpose, "client0", "expose", 0x42, 0x99)
	if err := CheckExposureBounds(ghost.Events()); err == nil || !strings.Contains(err.Error(), "no live MR") {
		t.Fatalf("exposure without an MR not detected: %v", err)
	}

	// Never deregistered.
	open := New(64)
	open.Span(100, 500, LayerRPC, KindRPC, "client0", "rpc", 0x42, 0)
	open.Begin(110, LayerIbsim, KindMR, "client0", "mr", 0x99, MRArg(remoteRead, 4096))
	open.Instant(120, LayerRPC, KindExpose, "client0", "expose", 0x42, 0x99)
	if err := CheckExposureBounds(open.Events()); err == nil || !strings.Contains(err.Error(), "never deregistered") {
		t.Fatalf("open exposure not detected: %v", err)
	}
}

func TestCheckNoRemoteExposure(t *testing.T) {
	const (
		localWrite  = uint8(1 << 0)
		remoteWrite = uint8(1 << 2)
	)
	tr := New(64)
	tr.Begin(10, LayerIbsim, KindMR, "server", "mr", 1, MRArg(localWrite, 4096))
	tr.Begin(20, LayerIbsim, KindMR, "client0", "mr", 2, MRArg(remoteWrite, 4096))
	if err := CheckNoRemoteExposure(tr.Events(), "server"); err != nil {
		t.Fatalf("local-only server flagged: %v", err)
	}
	if err := CheckNoRemoteExposure(tr.Events(), "client0"); err == nil {
		t.Fatal("remote MR on client0 not flagged")
	}
}

// chromeMetaFile decodes just enough of the export to check row metadata.
type chromeMetaFile struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		PID  int    `json:"pid"`
		TID  int    `json:"tid"`
		Args struct {
			Name      string `json:"name"`
			SortIndex *int   `json:"sort_index"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeRowMetadata pins the viewer-readability contract: every
// track gets a process_name plus a process_sort_index that orders rows by
// sorted track name (keeping a node's shard tracks adjacent), and every
// (track, layer) row seen in the data gets thread_name + thread_sort_index.
func TestWriteChromeRowMetadata(t *testing.T) {
	tr := New(64)
	tr.Span(1000, 2000, LayerRPC, KindServe, "server/shard1", "WRITE", 1, 0)
	tr.Span(1500, 2500, LayerRPC, KindServe, "server/shard0", "READ", 2, 0)
	tr.Span(900, 1100, LayerIbsim, KindDMA, "client0/qp1", "SEND", 3, 64)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeMetaFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	procName := map[int]string{}   // pid -> track name
	procSort := map[int]int{}      // pid -> sort_index
	threadMeta := map[[2]int]int{} // (pid, tid) -> named+sorted count
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "process_name":
			procName[e.PID] = e.Args.Name
		case "process_sort_index":
			if e.Args.SortIndex == nil {
				t.Fatalf("process_sort_index for pid %d has no sort_index", e.PID)
			}
			procSort[e.PID] = *e.Args.SortIndex
		case "thread_name", "thread_sort_index":
			threadMeta[[2]int{e.PID, e.TID}]++
		}
	}
	want := []string{"client0/qp1", "server/shard0", "server/shard1"}
	if len(procName) != len(want) {
		t.Fatalf("got %d process_name events, want %d: %v", len(procName), len(want), procName)
	}
	// sort_index must rank the tracks alphabetically.
	byIndex := make([]string, len(want))
	for pid, name := range procName {
		idx, ok := procSort[pid]
		if !ok {
			t.Fatalf("track %q (pid %d) has no process_sort_index", name, pid)
		}
		if idx < 1 || idx > len(want) {
			t.Fatalf("track %q sort_index %d out of range", name, idx)
		}
		byIndex[idx-1] = name
	}
	for i, name := range byIndex {
		if name != want[i] {
			t.Fatalf("sort order %v, want %v", byIndex, want)
		}
	}
	for k, n := range threadMeta {
		if n != 2 {
			t.Fatalf("row pid=%d tid=%d has %d of thread_name+thread_sort_index, want both", k[0], k[1], n)
		}
	}
	if len(threadMeta) != 3 {
		t.Fatalf("got %d named thread rows, want 3", len(threadMeta))
	}
}

// TestWriteChromeClosesOpenSpansInStreamOrder: intervals still open when the
// stream ends are closed in the order their Begins appear, so tracks first
// seen there get their pids in that order and equal-time ties keep it; the
// same events always render the same document.
func TestWriteChromeClosesOpenSpansInStreamOrder(t *testing.T) {
	tr := New(64)
	tracks := []string{"t5", "t1", "t7", "t3", "t0", "t6", "t2", "t4"}
	for i, track := range tracks {
		tr.Begin(100, LayerIbsim, KindWQE, track, track, uint64(i), 0)
	}
	tr.Instant(200, LayerRPC, KindTimeout, "end", "timeout", 0, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			got = append(got, fmt.Sprintf("%s/pid%d", e.Name, e.PID))
		}
	}
	var want []string
	for i, track := range tracks {
		want = append(want, fmt.Sprintf("%s/pid%d", track, i+2)) // pid 1 is "end"
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("open spans closed as %v, want %v (the Begins' stream order)", got, want)
	}
}

// TestCheckWQECQEReportsInIDOrder: requests never completed are reported in
// WQE order, so one stream always yields one message.
func TestCheckWQECQEReportsInIDOrder(t *testing.T) {
	tr := New(64)
	for _, id := range []uint64{6, 2, 8, 4, 1, 7, 3, 5} {
		tr.Begin(10, LayerIbsim, KindWQE, "c/qp1", "SEND", id, 0)
	}
	err := CheckWQECQE(tr.Events())
	if err == nil {
		t.Fatal("requests that never completed were not reported")
	}
	last := -1
	for id := 1; id <= 8; id++ {
		at := strings.Index(err.Error(), fmt.Sprintf("WQE %d posted", id))
		if at < last {
			t.Fatalf("unfinished requests not reported in WQE order:\n%v", err)
		}
		last = at
	}
}
