package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"procgroup/bench/loopnet"
	"procgroup/internal/broadcast"
	"procgroup/internal/core"
	"procgroup/internal/experiments"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/rsm"
	"procgroup/internal/scenario"
	"procgroup/internal/transport"
)

// microDrives measures single layers by driving their public functions
// from one goroutine: no group, no load. The counts among them are exact
// and must repeat bit for bit for one seed; the times are cheap context
// for the traced numbers, not gated.
func microDrives(seed int64) map[string]metricValue {
	m := make(map[string]metricValue)
	put := func(name string, v float64, n int) { m[name] = metricValue{Value: v, n: n} }

	put("transport.codec_ns_per_frame", codecNsPerFrame(20000), 20000)
	if fps, err := loopbackFramesPerSec(30000); err != nil {
		fmt.Fprintln(os.Stderr, "bench: transport.loopback_frames_per_s:", err)
	} else {
		put("transport.loopback_frames_per_s", fps, 30000)
	}
	put("fd.micro_observe_ns", detectorNsPerCall(200000), 200000)

	// §7.2: one exclusion costs 3n−5 messages, one coordinator
	// replacement 5n−9. The simulator's counts are exact.
	excl, _ := experiments.TwoPhaseCost(groupSize, seed)
	reconf, _ := experiments.ReconfigCost(groupSize, seed)
	put("core.msgs_per_exclusion", float64(excl), 1)
	put("core.msgs_per_reconfig", float64(reconf), 1)
	put("core.msgs_per_join", float64(simJoinMessages(seed)), 1)
	const sims = 50
	start := time.Now()
	for i := 0; i < sims; i++ {
		experiments.TwoPhaseCost(groupSize, seed+int64(i))
	}
	put("core.sim_exclusion_us", float64(time.Since(start))/1e3/sims, sims)

	const loopOps = 20000
	if res, err := loopnet.DriveKV(seed, loopOps, batchCap); err != nil {
		fmt.Fprintln(os.Stderr, "bench: broadcast.loop_*:", err)
	} else {
		put("broadcast.loop_cpu_ns_per_op", float64(res.Elapsed)/loopOps, loopOps)
		put("broadcast.loop_frames_per_op", float64(res.Frames)/loopOps, loopOps)
	}

	if us, err := singleNodePutUs(2000); err != nil {
		fmt.Fprintln(os.Stderr, "bench: rsm.single_node_put_us:", err)
	} else {
		put("rsm.single_node_put_us", us, 2000)
	}
	return m
}

// codecNsPerFrame times encode+decode of a 16-entry SeqdBatch, the frame
// the steady workloads' bytes mostly travel in.
func codecNsPerFrame(n int) float64 {
	fill := filler(0)
	sb := broadcast.SeqdBatch{Ver: 1, FirstSeq: 1000, Stable: 990}
	for i := 0; i < 16; i++ {
		key := keyName(i)
		sb.Entries = append(sb.Entries, broadcast.SeqdItem{
			Origin: ids.Named("p4"), PubID: uint64(i + 1),
			Body: rsm.EncodePut(key, valueFor(int64(i), key, fill)),
		})
	}
	f := transport.Frame{From: "p1", To: "p4", Seq: 7, Body: sb}
	var buf []byte
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if buf, err = transport.AppendFrame(buf[:0], f); err != nil {
			panic(err) // a registered payload always encodes
		}
		if _, err := transport.DecodeFrame(buf); err != nil {
			panic(err) // and decodes what it encoded
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// loopbackFramesPerSec pushes n small stream frames from one sender over
// a loopback TCP mux connection, windowed under the channel queue's depth
// so none is dropped.
func loopbackFramesPerSec(n int) (float64, error) {
	tr := transport.NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var got atomic.Int64
	if err := tr.Register(a, func(ids.ProcID, transport.Message) {}); err != nil {
		return 0, err
	}
	if err := tr.Register(b, func(ids.ProcID, transport.Message) { got.Add(1) }); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(opTimeout)
	waitFor := func(want int64) error {
		for got.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d of %d frames delivered within %v", got.Load(), want, opTimeout)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	msg := transport.Message{MsgID: 1, Payload: broadcast.AckSeq{Ver: 1, Seq: 1}}
	tr.Send(a, b, msg) // dial outside the timed stretch
	if err := waitFor(1); err != nil {
		return 0, err
	}
	const window = 512
	start := time.Now()
	for i := 1; i <= n; i++ {
		if err := waitFor(int64(i - window)); err != nil {
			return 0, err
		}
		tr.Send(a, b, msg)
	}
	if err := waitFor(int64(n + 1)); err != nil {
		return 0, err
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// detectorNsPerCall times the configured detector stack (hysteresis over
// a fixed timeout) on the call mix one beat period produces per peer: a
// beacon observed, a suspicion check.
func detectorNsPerCall(n int) float64 {
	det := fd.NewHysteresisFactory(fd.NewTimeoutFactory(suspectAfter), fd.HysteresisOptions{Dwell: dwell, FlapPenalty: 1})()
	peers := ids.Gen(groupSize)[1:]
	at := time.Now()
	start := time.Now()
	for i := 0; i < n; i += 2 {
		q := peers[(i/2)%len(peers)]
		at = at.Add(heartbeatEvery / time.Duration(len(peers)))
		det.ObserveBeacon(q, at)
		det.Suspect(q, at)
	}
	return float64(time.Since(start)) / float64(n)
}

// simJoinMessages counts every message one join costs a five-member
// group in the simulator (request, two-phase add, state transfer).
func simJoinMessages(seed int64) int {
	c := scenario.New(scenario.Options{N: groupSize, Seed: seed, Config: core.DefaultConfig()})
	c.Run()
	before := c.Messages()
	c.JoinAt(ids.Named("joiner"), c.Initial()[groupSize-1], c.Sched.Now()+50)
	c.Run()
	return c.Messages() - before
}

// singleNodePutUs is the single-node baseline: a group of one replicates
// to nobody, so a put costs the broadcast and RSM bookkeeping alone.
func singleNodePutUs(n int) (float64, error) {
	var node *rsm.Node
	c := live.Start(live.Options{N: 1, App: func(an live.AppNode) live.AppHook {
		node = rsm.NewNode(an, rsm.Config{Machine: rsm.NewKV(), Broadcast: broadcast.Config{
			Batch: broadcast.BatchConfig{MaxEntries: batchCap},
			Ack:   broadcast.AckConfig{Every: ackEvery},
		}})
		return node.Hook()
	}})
	defer c.Stop()
	if _, err := c.WaitConverged(convergeLimit); err != nil {
		return 0, err
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n+100; i++ {
		start := time.Now()
		if _, _, err := node.Propose(rsm.EncodePut(keyName(i%keysTotal), "v"), opTimeout); err != nil {
			return 0, err
		}
		if i >= 100 { // the first hundred warm the path up
			lat = append(lat, float64(time.Since(start))/1e3)
		}
	}
	return median(lat), nil
}
