package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/member"
	"procgroup/internal/rsm"
	"procgroup/internal/transport"
)

// Span names. Every layer boundary the benchmark can reach from outside
// the program has one; spans inside the program are a later change.
const (
	spClientOp = iota
	spSendStream
	spSendBeacon
	spDeliverStream
	spDeliverBeacon
	spHandleApp
	spHandleInstall
	spApply
	spSnapshot
	spRestore
	spObserve
	spSuspect
	nSpans
)

var spanNames = [nSpans]string{
	"client.op",
	"transport.send/stream", "transport.send/beacon",
	"transport.deliver/stream", "transport.deliver/beacon",
	"hook.handle_app", "hook.handle_install",
	"rsm.apply", "rsm.snapshot", "rsm.restore",
	"fd.observe", "fd.suspect",
}

// maxSpans caps the spans kept for the trace file. The totals every
// per-layer metric is computed from count every span; only the file is a
// prefix of the measured phase.
const maxSpans = 100_000

// span is one retained interval. Times are ns after the tracer's zero.
type span struct {
	id, parent int64 // parent 0 = none
	op         int64 // op id, -1 = none
	start, end int64
	name       uint8
	node       uint8 // index into tracer.nodeNames, 0 = none
	detail     string
}

type spanTotals struct{ count, total, self atomic.Int64 }

// stage is the replica-side timestamps of one sampled op: when the first
// and the last replica applied it, ns after the tracer's zero.
type stage struct {
	first, last atomic.Int64
	n           atomic.Int32
}

// tracer collects spans and counts from the wrappers below. It records
// only while on, so totals cover exactly the measured phase.
type tracer struct {
	zero   time.Time
	on     atomic.Bool
	nextID atomic.Int64
	totals [nSpans]spanTotals

	streamBytes atomic.Int64
	snapBytes   atomic.Int64

	mu        sync.Mutex
	spans     []span
	dropped   atomic.Int64
	flushMs   []float64
	nodeNames []string // index 0 unused
	ctx       map[ids.ProcID]*nodeCtx

	// stages[g][k/sampleEvery] for generator g's op k; sized by the runner
	// before the measured phase starts.
	stages [][]stage
}

func newTracer() *tracer {
	return &tracer{zero: time.Now(), nodeNames: []string{""}, ctx: make(map[ids.ProcID]*nodeCtx)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.zero)) }

// leaf records a span with no children.
func (t *tracer) leaf(name int, start, end, op int64, detail string) {
	t.record(span{op: op, start: start, end: end, name: uint8(name), detail: detail}, end-start)
}

func (t *tracer) record(s span, self int64) {
	tot := &t.totals[s.name]
	tot.count.Add(1)
	tot.total.Add(s.end - s.start)
	tot.self.Add(self)
	if t.dropped.Load() > 0 {
		t.dropped.Add(1)
		return
	}
	if s.id == 0 {
		s.id = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

func (t *tracer) mean(name int) float64 {
	n := t.totals[name].count.Load()
	if n == 0 {
		return 0
	}
	return float64(t.totals[name].total.Load()) / float64(n)
}

// nodeCtx is one node's span stack. Hook and state machine of a node run
// on that node's event loop only, so it needs no locking.
type nodeCtx struct {
	t     *tracer
	node  uint8
	stack [4]frame
	depth int
	// installAt is when this node last installed a view and no op of its
	// own has been acknowledged since (0 = none): the flush barrier's
	// client-visible length.
	installAt atomic.Int64
}

type frame struct {
	id, start, child int64
	name             int
}

func (t *tracer) ctxOf(p ids.ProcID) *nodeCtx {
	t.mu.Lock()
	defer t.mu.Unlock()
	nc := t.ctx[p]
	if nc == nil {
		t.nodeNames = append(t.nodeNames, p.String())
		nc = &nodeCtx{t: t, node: uint8(len(t.nodeNames) - 1)}
		t.ctx[p] = nc
	}
	return nc
}

// push opens a span; it returns false (and opens nothing) while the
// tracer is off.
func (nc *nodeCtx) push(name int) bool {
	if !nc.t.on.Load() || nc.depth == len(nc.stack) {
		return false
	}
	nc.stack[nc.depth] = frame{id: nc.t.nextID.Add(1), start: nc.t.now(), name: name}
	nc.depth++
	return true
}

// pop closes the innermost span. Its self time is its length minus what
// its children covered.
func (nc *nodeCtx) pop(op int64, detail string) {
	nc.depth--
	f := nc.stack[nc.depth]
	end := nc.t.now()
	var parent int64
	if nc.depth > 0 {
		parent = nc.stack[nc.depth-1].id
		nc.stack[nc.depth-1].child += end - f.start
	}
	nc.t.record(span{
		id: f.id, parent: parent, op: op, start: f.start, end: end,
		name: uint8(f.name), node: nc.node, detail: detail,
	}, end-f.start-f.child)
}

// --- transport ---------------------------------------------------------------

// tracedPlane wraps ONE plane of the two-plane transport. It must never
// wrap the TwoPlane itself: a wrapper that hides transport.BeaconPlaner
// silently flips the live runtime into piggyback-beacon mode, and the
// traced run would measure a different program.
type tracedPlane struct {
	transport.Transport
	t      *tracer
	beacon bool
	bufs   sync.Pool
}

func newTracedPlane(inner transport.Transport, t *tracer, beacon bool) *tracedPlane {
	return &tracedPlane{Transport: inner, t: t, beacon: beacon,
		bufs: sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}}
}

func (p *tracedPlane) Register(id ids.ProcID, h transport.Handler) error {
	name := spDeliverStream
	if p.beacon {
		name = spDeliverBeacon
	}
	return p.Transport.Register(id, func(from ids.ProcID, m transport.Message) {
		if !p.t.on.Load() {
			h(from, m)
			return
		}
		start := p.t.now()
		h(from, m)
		p.t.leaf(name, start, p.t.now(), -1, payloadName(m.Payload))
	})
}

func (p *tracedPlane) Send(from, to ids.ProcID, m transport.Message) {
	if !p.t.on.Load() {
		p.Transport.Send(from, to, m)
		return
	}
	start := p.t.now()
	p.Transport.Send(from, to, m)
	end := p.t.now()
	if p.beacon {
		p.t.leaf(spSendBeacon, start, end, -1, payloadName(m.Payload))
		return
	}
	p.t.leaf(spSendStream, start, end, -1, payloadName(m.Payload))
	// transport.Stats has no byte counter, so the frame is encoded once
	// more here, after the span closed, just for its length.
	bp := p.bufs.Get().(*[]byte)
	if b, err := transport.AppendFrame((*bp)[:0], transport.Frame{
		From: from.String(), To: to.String(), Seq: 1, MsgID: m.MsgID, Body: m.Payload,
	}); err == nil {
		p.t.streamBytes.Add(int64(len(b)) + 4) // + length prefix
		*bp = b[:0]
	}
	p.bufs.Put(bp)
}

func payloadName(v any) string {
	switch v.(type) {
	case live.Heartbeat:
		return "Heartbeat"
	case broadcast.PubBatch:
		return "PubBatch"
	case broadcast.SeqdBatch:
		return "SeqdBatch"
	case broadcast.AckSeq:
		return "AckSeq"
	case broadcast.Stable:
		return "Stable"
	case broadcast.Flush:
		return "Flush"
	case broadcast.ViewSync:
		return "ViewSync"
	}
	return fmt.Sprintf("%T", v)
}

// --- failure detector --------------------------------------------------------

type tracedDetector struct {
	fd.Detector
	t *tracer
}

func tracedDetectorFactory(inner fd.Factory, t *tracer) fd.Factory {
	return func() fd.Detector { return &tracedDetector{Detector: inner(), t: t} }
}

func (d *tracedDetector) Observe(q ids.ProcID, at time.Time) {
	if !d.t.on.Load() {
		d.Detector.Observe(q, at)
		return
	}
	start := d.t.now()
	d.Detector.Observe(q, at)
	d.t.leaf(spObserve, start, d.t.now(), -1, "protocol")
}

func (d *tracedDetector) ObserveBeacon(q ids.ProcID, at time.Time) {
	if !d.t.on.Load() {
		d.Detector.ObserveBeacon(q, at)
		return
	}
	start := d.t.now()
	d.Detector.ObserveBeacon(q, at)
	d.t.leaf(spObserve, start, d.t.now(), -1, "beacon")
}

func (d *tracedDetector) Suspect(q ids.ProcID, at time.Time) bool {
	if !d.t.on.Load() {
		return d.Detector.Suspect(q, at)
	}
	start := d.t.now()
	s := d.Detector.Suspect(q, at)
	d.t.leaf(spSuspect, start, d.t.now(), -1, "")
	return s
}

// --- application hook --------------------------------------------------------

type tracedHook struct {
	inner live.AppHook
	nc    *nodeCtx
}

func (h *tracedHook) HandleApp(from ids.ProcID, payload any) {
	if !h.nc.push(spHandleApp) {
		h.inner.HandleApp(from, payload)
		return
	}
	h.inner.HandleApp(from, payload)
	h.nc.pop(-1, payloadName(payload))
}

func (h *tracedHook) HandleInstall(ver member.Version, members []ids.ProcID) {
	if !h.nc.push(spHandleInstall) {
		h.inner.HandleInstall(ver, members)
		return
	}
	h.nc.installAt.Store(h.nc.t.now())
	h.inner.HandleInstall(ver, members)
	h.nc.pop(-1, fmt.Sprintf("v%d", ver))
}

// --- state machine -----------------------------------------------------------

// tracedKV wraps the replicated KV. It forwards rsm.LocalReader: without
// that every ReadLocal would silently fall back to a sequenced read.
type tracedKV struct {
	kv *rsm.KV
	nc *nodeCtx
}

var (
	_ rsm.StateMachine = (*tracedKV)(nil)
	_ rsm.LocalReader  = (*tracedKV)(nil)
)

func (s *tracedKV) Apply(cmd []byte) []byte {
	if !s.nc.push(spApply) {
		return s.kv.Apply(cmd)
	}
	out := s.kv.Apply(cmd)
	id := opIDOf(cmd)
	s.nc.pop(id, "")
	if g, k, ok := splitOpID(id); ok && k%sampleEvery == 0 && g < len(s.nc.t.stages) && k/sampleEvery < len(s.nc.t.stages[g]) {
		st := &s.nc.t.stages[g][k/sampleEvery]
		now := s.nc.t.now()
		st.first.CompareAndSwap(0, now) // 0 = unset; the tracer's zero predates every op
		for {
			cur := st.last.Load()
			if now <= cur || st.last.CompareAndSwap(cur, now) {
				break
			}
		}
		st.n.Add(1)
	}
	return out
}

func (s *tracedKV) ReadLocal(cmd []byte) ([]byte, bool) { return s.kv.ReadLocal(cmd) }

func (s *tracedKV) Snapshot() []byte {
	if !s.nc.push(spSnapshot) {
		return s.kv.Snapshot()
	}
	snap := s.kv.Snapshot()
	s.nc.t.snapBytes.Add(int64(len(snap)))
	s.nc.pop(-1, "")
	return snap
}

func (s *tracedKV) Restore(snap []byte) {
	if !s.nc.push(spRestore) {
		s.kv.Restore(snap)
		return
	}
	s.kv.Restore(snap)
	s.nc.pop(-1, "")
}

// --- trace file --------------------------------------------------------------

type spanJSON struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	Node    string  `json:"node,omitempty"`
	Op      *int64  `json:"op,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

type totalsJSON struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// writeFile dumps the retained spans and the per-name totals to
// results/trace-<workload>.json.
func (t *tracer) writeFile(workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Dropped  int64                 `json:"spans_dropped"`
		Totals   map[string]totalsJSON `json:"totals"`
		Spans    []spanJSON            `json:"spans"`
	}{Workload: workload, Seed: seed, Dropped: t.dropped.Load(), Totals: make(map[string]totalsJSON)}
	for i := range t.totals {
		out.Totals[spanNames[i]] = totalsJSON{
			Count:   t.totals[i].count.Load(),
			TotalMs: float64(t.totals[i].total.Load()) / 1e6,
			SelfMs:  float64(t.totals[i].self.Load()) / 1e6,
		}
	}
	out.Spans = make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		j := spanJSON{
			ID: s.id, Parent: s.parent, Name: spanNames[s.name], Detail: s.detail,
			Node: t.nodeNames[s.node], StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
		}
		if s.op >= 0 {
			op := s.op
			j.Op = &op
		}
		out.Spans[i] = j
	}
	dir, err := resultsDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := f.Write(blob); err != nil {
		return "", err
	}
	// Synced so that the write-back happens inside this run and not under
	// the next one's measured phase.
	if err := f.Sync(); err != nil {
		return "", err
	}
	return path, f.Close()
}
