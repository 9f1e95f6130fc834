package loopnet

import (
	"fmt"
	"math/rand"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/rsm"
)

// KVResult is one DriveKV run.
type KVResult struct {
	Ops     int
	Frames  int           // exact: a function of (seed, ops, batchCap) only
	Elapsed time.Duration // wall time of the single goroutine that did all the work
}

// DriveKV replicates ops KV puts over a five-member group on a Net: two
// non-sequencer origins propose bursts of 64, the net drains, repeat.
// batchCap ≤ 1 selects the unbatched wire.
func DriveKV(seed int64, ops, batchCap int) (KVResult, error) {
	const burst = 64
	var cfg broadcast.Config
	if batchCap > 1 {
		cfg = broadcast.Config{
			Batch: broadcast.BatchConfig{MaxEntries: batchCap},
			Ack:   broadcast.AckConfig{Every: min(batchCap, 16)},
		}
	}
	members := ids.Gen(5)
	nodes := make(map[ids.ProcID]*rsm.Node, len(members))
	net := New(members, func(an live.AppNode) live.AppHook {
		n := rsm.NewNode(an, rsm.Config{Machine: rsm.NewKV(), Broadcast: cfg})
		nodes[an.ID()] = n
		return n.Hook()
	})
	net.Install(1)
	net.Drain()

	rng := rand.New(rand.NewSource(seed))
	origins := []*rsm.Node{nodes[members[3]], nodes[members[4]]}
	acked, failed := 0, 0
	done := func(_ []byte, _ uint64, err error) {
		if err != nil {
			failed++
		}
		acked++
	}
	net.Frames = 0
	start := time.Now()
	for sent := 0; sent < ops; {
		for _, o := range origins {
			for i := 0; i < burst && sent < ops; i, sent = i+1, sent+1 {
				o.ProposeAsync(rsm.EncodePut(fmt.Sprintf("k%04d", rng.Intn(2048)), "v"), done)
			}
		}
		net.Drain()
	}
	res := KVResult{Ops: ops, Frames: net.Frames, Elapsed: time.Since(start)}
	if acked != ops || failed != 0 {
		return res, fmt.Errorf("loopnet: %d of %d puts acked, %d failed", acked, ops, failed)
	}
	return res, nil
}
