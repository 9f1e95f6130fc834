// Wire-path benchmarks: the codec, raw mux-connection throughput, and a
// beacon round trip on the datagram plane (EXPERIMENTS.md E15).
//
// Run with: go test -bench=. -benchmem ./internal/transport
package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// hb is the benchmark's stand-in for a substrate heartbeat.
type hb struct{}

func init() { RegisterBeaconPayload(200, hb{}) }

// benchFrames is a protocol-shaped traffic mix: mostly small round
// messages, one fat commit, one beacon-sized empty payload.
func benchFrames() []Frame {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	return []Frame{
		{From: "p1", To: "p2", Seq: 1, MsgID: 42, Body: core.OK{Ver: 4}},
		{From: "p1", To: "p3#2", Seq: 2, MsgID: 43, Body: core.Invite{Op: member.Remove(p3), Ver: 4}},
		{From: "p1", To: "p2", Seq: 3, MsgID: 44, Body: core.Commit{
			Op: member.Remove(p3), Ver: 4,
			Next: member.Add(ids.Named("q1")), NextVer: 5,
			Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
		}},
		{From: "p2", To: "p1", Seq: 4, MsgID: 45, Body: core.Interrogate{}},
	}
}

// BenchmarkFrameCodec measures the wire codec per frame, encode-only and
// full round trips.
func BenchmarkFrameCodec(b *testing.B) {
	frames := benchFrames()
	b.Run("binary/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendFrame(buf[:0], frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendFrame(buf[:0], frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeFrame(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPThroughput pushes frames through one mux connection and
// reports frames/sec end to end (enqueue → writer → socket → reader →
// handler). The window keeps the sender inside the bounded channel queue
// so no frame is dropped and every one is awaited.
func BenchmarkTCPThroughput(b *testing.B) {
	tr := NewTCP()
	defer tr.Close()
	a, c := ids.Named("a"), ids.Named("b")
	var received atomic.Int64
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		b.Fatal(err)
	}
	if err := tr.Register(c, func(ids.ProcID, Message) { received.Add(1) }); err != nil {
		b.Fatal(err)
	}
	// Prime the connection so dial cost stays out of the steady state;
	// warm-up frames can legitimately drop, so retry under a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() == 0 {
		tr.Send(a, c, Message{MsgID: 1, Payload: core.OK{Ver: 0}})
		if time.Now().After(deadline) {
			b.Fatal("warm-up frame never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let any retried warm-ups land before counting
	received.Store(0)

	const window = 512 // stay under tcpQueueDepth: throughput, not drops
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for int64(i)-received.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		tr.Send(a, c, Message{MsgID: int64(i + 1), Payload: core.OK{Ver: member.Version(i)}})
	}
	for received.Load() < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "frames/sec")
}

// BenchmarkHeartbeatSend measures the beacon path end to end on the
// plane beacons ride, UDP: each op sends one beacon and waits for its
// delivery, so every iteration exercises the full cached-encode →
// sendto → read → decode → deliver path.
func BenchmarkHeartbeatSend(b *testing.B) {
	tr := NewUDP()
	defer tr.Close()
	a, c := ids.Named("a"), ids.Named("b")
	var received atomic.Int64
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		b.Fatal(err)
	}
	if err := tr.Register(c, func(ids.ProcID, Message) { received.Add(1) }); err != nil {
		b.Fatal(err)
	}
	tr.Send(a, c, Message{Payload: hb{}})
	waitAtLeast(b, &received, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(a, c, Message{Payload: hb{}})
		waitAtLeast(b, &received, int64(i+2))
	}
}

// waitAtLeast waits (allocation-free) until n deliveries have landed. It
// sleeps rather than spinning: a busy spin can monopolize the scheduler
// on small GOMAXPROCS and leave socket readiness to sysmon's 10ms
// netpoll fallback, measuring the runtime instead of the wire.
func waitAtLeast(b *testing.B, received *atomic.Int64, n int64) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < n {
		if time.Now().After(deadline) {
			b.Fatalf("delivery %d never arrived", n)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

func ExampleStats() {
	tr := NewInmem()
	defer tr.Close()
	a := ids.Named("a")
	tr.Register(a, func(ids.ProcID, Message) {})
	tr.Send(a, ids.Named("ghost"), Message{MsgID: 1, Payload: core.OK{}})
	fmt.Println(tr.Stats().UnknownPeer)
	// Output: 1
}
