package adversary

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
)

// ExampleRun is the write-spray attack end to end: against the vulnerable
// posture, seed 3's rkey scan finds all-physical registration's global
// steering tag, the attacker's 0xEE spray lands in a victim's file, and the
// integrity oracle names the byte. The hardened posture ends censored and
// clean.
func ExampleRun() {
	res := Run(Config{Config: chaos.Config{Config: core.Config{Seed: 3, Design: rpcrdma.ReadWrite, RegMode: memreg.AllPhysical}}})
	if res.Compromised {
		fmt.Printf("compromised at t=%v via %s\n", time.Duration(res.TimeToCompromise), res.CompromiseVia)
	}
	fmt.Printf("scan: probes=%d hits=%d writeHits=%d reconnects=%d   stale: sent=%d hits=%d\n",
		res.Probes, res.ProbeHits, res.WriteHits, res.Reconnects, res.StaleSent, res.StaleHits)
	fmt.Printf("spoof: sent=%d   forge: sent=%d failed=%d\n", res.SpoofSent, res.ForgeSent, res.ForgeFails)
	fmt.Printf("server: doneRejected=%d spoofDrops=%d crossClientFrees=%d quarantines=%d\n",
		res.DoneRejected, res.SpoofDrops, res.CrossClientFrees, res.Quarantines)
	fmt.Printf("victims: writesAcked=%d reads=%d reconnects=%d crashes=%d blastRadius=%d\n",
		res.Load.WritesAcked, res.Load.ReadsChecked, res.VictimRecon, res.Crashes, res.BlastRadius)
	fmt.Println("fingerprint:", res.Fingerprint)
	printVerdict(res)

	hardened := Run(Config{Config: chaos.Config{Config: core.Config{Seed: 3, Design: rpcrdma.ReadWrite, RegMode: memreg.AllPhysical}}, Hardened: true})
	fmt.Printf("hardened: compromised=%v probes=%d hits=%d (censored at %v) ",
		hardened.Compromised, hardened.Probes, hardened.ProbeHits, time.Duration(hardened.FinalTime))
	printVerdict(hardened)
	// Output:
	// compromised at t=2.544362ms via rkey-scan read
	// scan: probes=256 hits=1 writeHits=16 reconnects=255   stale: sent=1 hits=1
	// spoof: sent=64   forge: sent=16 failed=0
	// server: doneRejected=64 spoofDrops=0 crossClientFrees=0 quarantines=0
	// victims: writesAcked=36 reads=12 reconnects=0 crashes=0 blastRadius=1
	// fingerprint: t=6853531 ttc=2544362 comp=true probes=256/1 wr=16 rc=255 spoof=64 forge=16/0 stale=1/1 done=64/64 xfree=0 drop=0 quar=0 wa=36 wf=0 reads=12 vrc=0 crash=0 blast=1 viol=1
	// verdict: victims CORRUPTED (1 violations)
	//   oracle: read chaos.c0 rec 0 byte 0: got 0xee, legal committed=0xf(acked=true) pending=[]
	// hardened: compromised=false probes=256 hits=0 (censored at 5.852022ms) verdict: victims CLEAN (integrity oracle satisfied)
}

func printVerdict(res *Result) {
	if len(res.Violations) == 0 {
		fmt.Println("verdict: victims CLEAN (integrity oracle satisfied)")
		return
	}
	fmt.Printf("verdict: victims CORRUPTED (%d violations)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println("  oracle:", v)
	}
}
