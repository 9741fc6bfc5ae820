package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rpcrdma"
)

// ExampleShrink is the broken-server demonstration: with the duplicate
// request cache disabled, seed 12's six-fault schedule makes a replayed
// RENAME re-execute, the oracle flags the NFS3ERR_NOENT no correct server
// can return outside a crash, and the shrinker cuts the schedule down to
// the one fault that causes it. With the cache on, that fault is harmless.
func ExampleShrink() {
	cfg := Config{
		Config: core.Config{Seed: 12, Design: rpcrdma.ReadWrite, DRCEntries: -1},
		Faults: 6, MaxCrashes: 1, TraceCapacity: 1 << 20,
	}
	res := Run(cfg)
	fmt.Println("schedule:", res.Schedule)
	fmt.Printf("crashes=%d reconnects=%d replays=%d timeouts=%d drcHits=%d drcMisses=%d\n",
		res.Crashes, res.Reconnects, res.Replays, res.Timeouts, res.DRCHits, res.DRCMisses)
	fmt.Printf("writes acked=%d failed=%d   oracle reads=%d   renames ok=%d enoent=%d failed=%d\n",
		res.Load.WritesAcked, res.Load.WritesFailed, res.OracleReads,
		res.Load.RenamesOK, res.Load.RenameENOENTs, res.Load.RenamesFailed)
	fmt.Println("fingerprint:", res.Fingerprint)
	printVerdict(res)

	minimal := Shrink(res.Schedule, func(s Schedule) bool {
		c := cfg
		c.Schedule = &s
		return Run(c).Failed()
	})
	fmt.Printf("minimal reproducer (%d faults): %v\n", len(minimal.Faults), minimal)
	cfg.Schedule, cfg.DRCEntries = &minimal, 0
	fmt.Print("with the DRC on: ")
	printVerdict(Run(cfg))
	// Output:
	// schedule: seed=12 [t=1046µs flap(client0); t=1081µs qperr(client1); t=1409µs flap(client1); t=2102µs flap(client0); t=2125µs crash(down=2062µs); t=2360µs qperr(client1)]
	// crashes=1 reconnects=5 replays=11 timeouts=1 drcHits=0 drcMisses=0
	// writes acked=36 failed=0   oracle reads=24   renames ok=7 enoent=1 failed=0
	// fingerprint: t=8370110 crashes=1 rc=5 rp=11 to=1 drc=0/0 wi=36 wa=36 wf=0 reads=24 ren=7/1/0 viol=1 inv=0
	// verdict: FAILED
	//   oracle: RENAME got NFS3ERR_NOENT at t=[1023906,1153921] with no overlapping server crash: duplicate RENAME re-executed (DRC replay failure)
	// minimal reproducer (1 faults): seed=12 [t=1046µs flap(client0)]
	// with the DRC on: verdict: CLEAN (oracle and trace invariants satisfied)
}

func printVerdict(res *Result) {
	if !res.Failed() {
		fmt.Println("verdict: CLEAN (oracle and trace invariants satisfied)")
		return
	}
	fmt.Println("verdict: FAILED")
	for _, v := range res.Violations {
		fmt.Println("  oracle:", v)
	}
	for _, v := range res.InvariantViolations {
		fmt.Println("  invariant:", v)
	}
}
