package main

import (
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/check"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/rsm"
	"procgroup/internal/topology"
	"procgroup/internal/transport"
)

// harness is one live group of KV replicas under the fixed configuration,
// with the tracing wrappers installed when t is set and the order
// recorder attached when certify is.
type harness struct {
	w       workload
	seed    int64
	t       *tracer
	certify bool

	c    *live.Cluster
	rec  *rsm.Recorder
	hyst *fd.HysteresisStats

	mu    sync.Mutex
	nodes map[ids.ProcID]*rsm.Node
	kvs   map[ids.ProcID]*rsm.KV

	bootMs float64
}

// newTransport builds the two-plane loopback wire. Tracing and delay wrap
// each plane separately, innermost tracing (outside only the pre-dialing
// shim, whose probes are not traffic): the TwoPlane handed to live.Start
// must stay a transport.BeaconPlaner.
func newTransport(w workload, seed int64, t *tracer) transport.Transport {
	var stream, beacon transport.Transport = newPredialed(transport.NewTCP()), transport.NewUDP()
	if t != nil {
		stream, beacon = newTracedPlane(stream, t, false), newTracedPlane(beacon, t, true)
	}
	if w.WAN {
		link := transport.ChaosLink{Delay: wanOneWay}
		stream = transport.NewChaos(stream, transport.ChaosOptions{Seed: seed, Default: link})
		beacon = transport.NewChaos(beacon, transport.ChaosOptions{Seed: seed + 1, Default: link})
	}
	return transport.NewTwoPlane(stream, beacon)
}

// startHarness boots the group and waits for the initial view.
func startHarness(w workload, seed int64, t *tracer, certify bool) (*harness, error) {
	h := &harness{
		w: w, seed: seed, t: t, certify: certify,
		hyst:  &fd.HysteresisStats{},
		nodes: make(map[ids.ProcID]*rsm.Node),
		kvs:   make(map[ids.ProcID]*rsm.KV),
	}
	if certify {
		h.rec = rsm.NewRecorder()
	}
	detector := fd.NewHysteresisFactory(fd.NewTimeoutFactory(suspectAfter),
		fd.HysteresisOptions{Dwell: dwell, FlapPenalty: 1, Stats: h.hyst})
	if t != nil {
		detector = tracedDetectorFactory(detector, t)
	}
	start := time.Now()
	h.c = live.Start(live.Options{
		N:              groupSize,
		Topology:       topology.Full{},
		HeartbeatEvery: heartbeatEvery,
		SuspectAfter:   suspectAfter,
		Detector:       detector,
		Transport:      newTransport(w, seed, t),
		App:            h.attach,
	})
	if _, err := h.c.WaitConverged(convergeLimit); err != nil {
		h.c.Stop()
		return nil, fmt.Errorf("boot: %w", err)
	}
	h.bootMs = float64(time.Since(start)) / 1e6
	return h, nil
}

// attach is the live.AppHookFactory: one KV replica per spawned process.
func (h *harness) attach(an live.AppNode) live.AppHook {
	kv := rsm.NewKV()
	var sm rsm.StateMachine = kv
	var nc *nodeCtx
	if h.t != nil {
		nc = h.t.ctxOf(an.ID())
		sm = &tracedKV{kv: kv, nc: nc}
	}
	node := rsm.NewNode(an, rsm.Config{
		Machine:  sm,
		Recorder: h.rec,
		Broadcast: broadcast.Config{
			Batch: broadcast.BatchConfig{MaxEntries: batchCap},
			Ack:   broadcast.AckConfig{Every: ackEvery},
		},
	})
	h.mu.Lock()
	h.nodes[an.ID()] = node
	h.kvs[an.ID()] = kv
	h.mu.Unlock()
	if nc != nil {
		return &tracedHook{inner: node.Hook(), nc: nc}
	}
	return node.Hook()
}

func (h *harness) node(p ids.ProcID) *rsm.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[p]
}

// home is generator g's member: the most junior ones, so that none is the
// sequencer and, under churn, sequencer kills reach it last.
func home(g int) ids.ProcID { return ids.Gen(groupSize)[groupSize-1-g] }

// counters flattens the public stats the S metrics are deltas of, summed
// over every replica this harness ever hosted.
func (h *harness) counters() map[string]float64 {
	h.mu.Lock()
	var st rsm.Stats
	for _, n := range h.nodes {
		st = st.Add(n.Stats())
	}
	h.mu.Unlock()
	b, ts := st.Broadcast, h.c.TransportStats()
	return map[string]float64{
		"drops":         float64(ts.Dropped()),
		"queueMax":      float64(ts.SendQueueMax),
		"pubBatches":    float64(b.PubBatches),
		"seqdBatches":   float64(b.SeqdBatches),
		"sequenced":     float64(b.Sequenced),
		"acksSent":      float64(b.AcksSent),
		"acksSupp":      float64(b.AcksSuppressed),
		"stablePiggy":   float64(b.StablePiggybacked),
		"stableBcast":   float64(b.StableBroadcasts),
		"fences":        float64(b.Fences),
		"fencesImm":     float64(b.FencesImmediate),
		"resubmits":     float64(b.Resubmits),
		"syncs":         float64(b.Syncs),
		"overflow":      float64(b.DroppedOverflow),
		"localReads":    float64(st.LocalReads),
		"readFallbacks": float64(st.ReadFallbacks),
		"seqReads":      float64(st.SequencedReads),
		"crossings":     float64(h.hyst.Crossings.Load()),
		"mistakes":      float64(h.hyst.Mistakes.Load()),
		"installDrops":  float64(h.c.Dropped()),
		"readmitDefer":  float64(h.c.ReadmitDeferred()),
	}
}

// addDelta accumulates after−before into total. queueMax is a high-water
// mark, not a counter, so it takes the maximum.
func addDelta(total, before, after map[string]float64) {
	for k, v := range after {
		if k == "queueMax" {
			total[k] = max(total[k], v)
			continue
		}
		total[k] += v - before[k]
	}
}

// --- keys, values, op ids ----------------------------------------------------

// warmGen is the generator number warm-up writes carry in their op ids.
const warmGen = 0xff

func opID(gen, k int) int64 { return int64(gen)<<40 | int64(k) }

func splitOpID(id int64) (gen, k int, ok bool) {
	if id < 0 {
		return 0, 0, false
	}
	return int(id >> 40), int(id & (1<<40 - 1)), true
}

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// filler pads values to valueLen; the seed picks it, the program sees
// only bytes.
func filler(seed int64) string {
	var b [valueLen]byte
	for i := range b {
		b[i] = 'a' + byte((seed+int64(i)*7)%26)
	}
	return string(b[:])
}

// valueFor is the value an op writes: its id in 16 hex digits (so the
// traced state machine can timestamp the op at every replica), the key,
// and filler up to valueLen bytes.
func valueFor(id int64, key, fill string) string {
	var b [valueLen]byte
	var raw [8]byte
	for i := range raw {
		raw[i] = byte(uint64(id) >> (56 - 8*i))
	}
	hex.Encode(b[:16], raw[:])
	b[16] = '|'
	n := 17 + copy(b[17:], key)
	b[n] = '|'
	copy(b[n+1:], fill)
	return string(b[:])
}

// opIDOf extracts the op id from an encoded put, or -1.
func opIDOf(cmd []byte) int64 {
	if len(cmd) < 3 || cmd[0] != 'P' {
		return -1
	}
	off := 3 + (int(cmd[1])<<8 | int(cmd[2]))
	if len(cmd) < off+16 {
		return -1
	}
	v := cmd[off:]
	var raw [8]byte
	if _, err := hex.Decode(raw[:], v[:16]); err != nil {
		return -1
	}
	var id uint64
	for _, c := range raw {
		id = id<<8 | uint64(c)
	}
	return int64(id)
}

// --- sink --------------------------------------------------------------------

// kvSink drives the group for the generators and keeps what verification
// needs: a completion count per op (acked exactly once), the last value
// written per key, and under certify every client op for the
// linearizability checker.
type kvSink struct {
	h       *harness
	keysPer int
	keys    []string
	fill    string
	homes   []*rsm.Node
	homeCtx []*nodeCtx // traced runs only

	last    []int64           // per key: id of the last put issued (owning generator writes)
	acks    [][]atomic.Uint32 // per generator, per op: completions seen
	ops     [][]rsm.ClientOp  // per generator, per op (certify only)
	dupAcks atomic.Int64
	badRead atomic.Int64
}

func newKVSink(h *harness) *kvSink {
	s := &kvSink{h: h, keysPer: keysTotal / h.w.Gens, fill: filler(h.seed), last: make([]int64, keysTotal)}
	for i := 0; i < keysTotal; i++ {
		s.keys = append(s.keys, keyName(i))
	}
	for g := 0; g < h.w.Gens; g++ {
		s.homes = append(s.homes, h.node(home(g)))
		if h.t != nil {
			s.homeCtx = append(s.homeCtx, h.t.ctxOf(home(g)))
		}
	}
	return s
}

// prepare sizes the per-op tables for the generators about to run.
func (s *kvSink) prepare(gens []*generator) {
	for _, g := range gens {
		s.acks = append(s.acks, make([]atomic.Uint32, len(g.recs)))
		if s.h.certify {
			s.ops = append(s.ops, make([]rsm.ClientOp, len(g.recs)))
		}
	}
}

// warmUp writes every key once through its owner's home member and waits
// for the acks, so caches are filled, connections are up, and a joiner's
// snapshot has the same size whenever it is taken.
func (s *kvSink) warmUp() error {
	var acked atomic.Int64
	for i, key := range s.keys {
		id := opID(warmGen, i)
		s.last[i] = id
		s.homes[i/s.keysPer].ProposeAsync(rsm.EncodePut(key, valueFor(id, key, s.fill)),
			func(_ []byte, _ uint64, err error) {
				if err == nil {
					acked.Add(1)
				}
			})
	}
	deadline := time.Now().Add(opTimeout)
	for acked.Load() < int64(len(s.keys)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d writes acked within %v", acked.Load(), len(s.keys), opTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *kvSink) Put(o op, done func(error)) {
	ki := o.Gen*s.keysPer + o.Key
	key, id := s.keys[ki], opID(o.Gen, o.K)
	val := valueFor(id, key, s.fill)
	s.last[ki] = id
	node := s.homes[o.Gen]
	invoke := time.Now().UnixNano()
	node.ProposeAsync(rsm.EncodePut(key, val), func(_ []byte, pubID uint64, err error) {
		if s.acks[o.Gen][o.K].Add(1) > 1 {
			s.dupAcks.Add(1)
			return
		}
		if s.h.certify {
			s.ops[o.Gen][o.K] = rsm.ClientOp{
				Write: true, Key: key, Val: val, Origin: node.ID(), PubID: pubID,
				Invoke: invoke, Complete: time.Now().UnixNano(), Acked: err == nil,
			}
		}
		if t := s.h.t; t != nil && t.on.Load() {
			now := t.now()
			t.leaf(spClientOp, int64(o.Due.Sub(t.zero)), now, id, "put")
			if at := s.homeCtx[o.Gen].installAt.Swap(0); at != 0 {
				t.mu.Lock()
				t.flushMs = append(t.flushMs, float64(now-at)/1e6)
				t.mu.Unlock()
			}
		}
		done(err)
	})
}

func (s *kvSink) Get(o op) error {
	key := s.keys[o.Gen*s.keysPer+o.Key]
	node := s.homes[o.Gen]
	invoke := time.Now().UnixNano()
	res, err := node.Read(rsm.EncodeGet(key), rsm.ReadLocal, opTimeout)
	if s.h.certify {
		s.ops[o.Gen][o.K] = rsm.ClientOp{
			Key: key, Val: string(res.Resp), Origin: node.ID(), PubID: res.PubID,
			Invoke: invoke, Complete: time.Now().UnixNano(), Acked: err == nil,
			Local: res.Local, Fence: res.Fence,
		}
	}
	if t := s.h.t; t != nil && t.on.Load() {
		t.leaf(spClientOp, int64(o.Due.Sub(t.zero)), t.now(), -1, "get")
	}
	// Every key was written during warm-up, so a read returns a value
	// some op wrote to that very key.
	if err == nil && !strings.HasPrefix(string(res.Resp[min(17, len(res.Resp)):]), key+"|") {
		s.badRead.Add(1)
		return fmt.Errorf("read of %s returned %q", key, res.Resp)
	}
	return err
}

// --- verification ------------------------------------------------------------

// verify checks the run's outputs after the load has drained: every
// replica still running holds, for every key, the last value written to
// it, and no op was acknowledged twice. With certify it also runs the GMP
// property checker, the total-order checker and the KV linearizability
// checker. It stops the cluster (replica state is read once the event
// loops have exited).
func (h *harness) verify(s *kvSink) []error {
	var errs []error
	// An ack means stable, and stable means every member of the view has
	// applied the op, so once the load has drained there is nothing to
	// wait for.
	running := h.c.Running()
	h.c.Stop()

	if n := s.dupAcks.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d ops acknowledged more than once", n))
	}
	if n := s.badRead.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d reads returned another key's value", n))
	}
	for _, p := range running {
		kv := h.kvs[p]
		bad := 0
		for i, key := range s.keys {
			if kv.Get(key) != valueFor(s.last[i], key, s.fill) {
				bad++
			}
		}
		if bad > 0 {
			errs = append(errs, fmt.Errorf("replica %v: %d of %d keys do not hold their last acked value", p, bad, len(s.keys)))
		}
	}
	if !h.certify {
		return errs
	}

	alive := ids.NewSet(running...)
	if rep := check.Run(check.Input{Recorder: h.c.Recorder(), Initial: ids.Gen(groupSize), Alive: alive.Has}); !rep.OK() {
		errs = append(errs, fmt.Errorf("GMP: %v", rep))
	}
	seqs := h.rec.Sequences()
	if err := rsm.CheckTotalOrder(seqs, running); err != nil {
		errs = append(errs, fmt.Errorf("total order: %w", err))
	}
	// The reference order comes from survivors only; the home member is
	// the full-history witness (joiners hold a suffix).
	aliveSeqs := make(map[ids.ProcID][]rsm.Record, len(running))
	for _, p := range running {
		aliveSeqs[p] = seqs[p]
	}
	var ops []rsm.ClientOp
	for _, per := range s.ops {
		for _, o := range per {
			if o.Invoke != 0 {
				ops = append(ops, o)
			}
		}
	}
	if err := rsm.CheckKVLinearizable(ops, rsm.LongestApplied(aliveSeqs)); err != nil {
		errs = append(errs, fmt.Errorf("linearizability: %w", err))
	}
	return errs
}
