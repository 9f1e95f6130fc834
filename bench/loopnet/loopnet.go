// Package loopnet runs a group of application hooks on one goroutine: no
// transport, no scheduler, no wall clock. Frames travel through a single
// FIFO queue and timers fire on a manual clock, so a run is a pure
// function of its inputs — its frame count repeats exactly, and its
// wall time is the broadcast and replication layers' CPU cost with
// nothing else in it.
package loopnet

import (
	"container/heap"
	"time"

	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/member"
)

// Net is the single-goroutine substrate. It is not safe for concurrent
// use; that is its point.
type Net struct {
	nodes  map[ids.ProcID]*Node
	order  []ids.ProcID
	queue  []item
	head   int
	now    time.Duration
	timers timerHeap
	seq    int

	// Frames counts payloads sent between distinct nodes.
	Frames int
}

type item struct {
	to      *Node
	from    ids.ProcID
	payload any
	fn      func()
}

// Node is one member's live.AppNode.
type Node struct {
	net  *Net
	id   ids.ProcID
	hook live.AppHook
}

var _ live.AppNode = (*Node)(nil)

// New builds a net of the given members; attach is called once per
// member, in order, like live.Options.App.
func New(members []ids.ProcID, attach live.AppHookFactory) *Net {
	n := &Net{nodes: make(map[ids.ProcID]*Node, len(members)), order: members}
	for _, p := range members {
		node := &Node{net: n, id: p}
		n.nodes[p] = node
		node.hook = attach(node)
	}
	return n
}

// Install delivers a view install to every member, in seniority order.
func (n *Net) Install(ver member.Version) {
	for _, p := range n.order {
		n.nodes[p].hook.HandleInstall(ver, append([]ids.ProcID(nil), n.order...))
	}
}

// Drain processes queued work until none is left, advancing the clock to
// each pending timer in turn once the queue is empty.
func (n *Net) Drain() {
	for {
		for n.head < len(n.queue) {
			it := n.queue[n.head]
			n.queue[n.head] = item{}
			n.head++
			if it.fn != nil {
				it.fn()
			} else {
				it.to.hook.HandleApp(it.from, it.payload)
			}
		}
		n.queue, n.head = n.queue[:0], 0
		if len(n.timers) == 0 {
			return
		}
		t := heap.Pop(&n.timers).(*timer)
		n.now = t.at
		if !t.cancelled {
			t.fn()
		}
	}
}

// ID implements live.AppNode.
func (x *Node) ID() ids.ProcID { return x.id }

// Send implements live.AppNode.
func (x *Node) Send(to ids.ProcID, payload any) {
	dst := x.net.nodes[to]
	if dst == nil {
		return
	}
	if to != x.id {
		x.net.Frames++
	}
	x.net.queue = append(x.net.queue, item{to: dst, from: x.id, payload: payload})
}

// Run implements live.AppNode.
func (x *Node) Run(fn func()) { x.net.queue = append(x.net.queue, item{fn: fn}) }

// After implements live.AppNode on the manual clock.
func (x *Node) After(d time.Duration, fn func()) (cancel func()) {
	x.net.seq++
	t := &timer{at: x.net.now + d, seq: x.net.seq, fn: fn}
	heap.Push(&x.net.timers, t)
	return func() { t.cancelled = true }
}

type timer struct {
	at        time.Duration
	seq       int // FIFO among timers due at the same instant
	fn        func()
	cancelled bool
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}
