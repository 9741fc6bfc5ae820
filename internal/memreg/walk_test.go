package memreg

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/ibsim"
)

// segments collects what r.Each walks.
func segments(r *Registration) []Segment {
	var segs []Segment
	r.Each(func(s Segment) { segs = append(segs, s) })
	return segs
}

// TestAllPhysicalSegmentsFollowRuns: over random run layouts, buffer sizes and
// sub-ranges, an all-physical registration's segments are the range's
// physical runs in order, each under the global steering tag at its own
// address — the buffer's runs cut to the range, the list registration built
// before it walked them — for a whole staging chunk (Get) and a range of
// caller memory (RegisterExternal) alike.
func TestAllPhysicalSegmentsFollowRuns(t *testing.T) {
	rng := des.NewRand(11)
	for i := 0; i < 400; i++ {
		sim := des.New()
		node := ibsim.NewFabric(sim, false).AddNode(ibsim.NodeConfig{Name: "n", Cores: 1, MeanPhysRun: 4096 << rng.Intn(5)})
		size := 1 + rng.Intn(512<<10)
		off := rng.Intn(size)
		n := 1 + rng.Intn(size-off)
		sim.Spawn("op", func(p *des.Proc) {
			m := NewManager(p, node, Config{Mode: AllPhysical})
			rkey := node.HCA.GlobalMR().Rkey()
			want := func(buf *ibsim.Buffer, off, n int) []Segment {
				var segs []Segment
				buf.EachRun(0, buf.Size, func(start, run int) {
					if s, e := max(start, off), min(start+run, off+n); s < e {
						segs = append(segs, Segment{Rkey: rkey, Addr: buf.Addr(s), Len: e - s})
					}
				})
				return segs
			}
			c := m.Get(p, size, ibsim.AccessLocalWrite)
			if got, want := segments(c.Reg), want(&c.Buf, 0, size); !reflect.DeepEqual(got, want) {
				t.Errorf("%d-byte chunk: segments %v, want %v", size, got, want)
			}
			user := node.Mem.Alloc(size)
			r := m.RegisterExternal(p, user, off, n, ibsim.AccessRemoteWrite)
			if got, want := segments(r), want(user, off, n); !reflect.DeepEqual(got, want) {
				t.Errorf("[%d, %d) of %d bytes: segments %v, want %v", off, off+n, size, got, want)
			}
			m.DeregisterExternal(p, r)
			m.Put(p, c)
		})
		sim.Run()
	}
}
