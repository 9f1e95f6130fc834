// Kvstore: a replicated key-value store on top of the process group —
// the paper's machinery put to work. Every member hosts a KV replica;
// writes enter at any member, ride the view-synchronous broadcast layer
// into one total order under group commit (batched sequencing, coalesced
// acks), and are acknowledged only at stability, so an acked write
// survives the crash we then inflict on the write's own entry point
// (which is also the order's sequencer). Reads are served locally behind
// the stability fence — no total-order traffic — and stay linearizable.
package main

import (
	"fmt"
	"log"
	"time"

	"procgroup"
)

func main() {
	kv := procgroup.NewReplicatedKV().WithBatching(
		procgroup.BatchConfig{MaxEntries: 16},
		procgroup.AckConfig{Every: 16},
	).WithCertification() // record the applied order so CheckTotalOrder can certify it
	group := procgroup.StartGroup(procgroup.GroupOptions{
		N:              5,
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		App:            kv.Factory(),
	})
	defer group.Stop()

	v, err := group.WaitConverged(5 * time.Second)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	fmt.Printf("group up: %v  (sequencer %v)\n\n", v, v.Mgr())

	// Writes through different members still form one total order.
	for i, p := range group.Running() {
		key := fmt.Sprintf("color%d", i)
		if _, err := kv.Propose(p, procgroup.KVPut(key, "green"), 5*time.Second); err != nil {
			log.Fatalf("write via %v: %v", p, err)
		}
		fmt.Printf("PUT %s=green  (entered at %v, acked at stability)\n", key, p)
	}

	// Kill the sequencer: the view change flushes, re-sequences the
	// survivors' tails, and every acked write above is still there.
	seq := v.Mgr()
	fmt.Printf("\n--- killing the sequencer %v ---\n", seq)
	group.Kill(seq)
	if _, err := group.WaitConverged(15 * time.Second); err != nil {
		log.Fatalf("after killing %v: %v", seq, err)
	}

	// Local reads: each executes on the survivor behind the stability
	// fence instead of entering the total order.
	survivor := group.Running()[0]
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("color%d", i)
		res, err := kv.Read(survivor, procgroup.KVGet(key), procgroup.ReadLocal, 10*time.Second)
		if err != nil {
			log.Fatalf("read %s: %v", key, err)
		}
		mode := "sequenced"
		if res.Local {
			mode = "local, stability-fenced"
		}
		fmt.Printf("GET %s = %q  (%s)\n", key, res.Resp, mode)
	}

	if err := kv.CheckTotalOrder(group.Running()); err != nil {
		log.Fatalf("certification: %v", err)
	}
	st := kv.Stats()
	fmt.Printf("\ncertified: all replicas applied the same total order\n")
	fmt.Printf("group commit: %d pub batches, %d seqd batches, %d acks sent (%d suppressed), %d local reads\n",
		st.Broadcast.PubBatches, st.Broadcast.SeqdBatches,
		st.Broadcast.AcksSent, st.Broadcast.AcksSuppressed, st.LocalReads)
}
