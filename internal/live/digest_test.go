package live

import (
	"testing"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/ids"
	"procgroup/internal/topology"
	"procgroup/internal/transport"
)

// bench-free unit coverage of the digest batch: the per-edge dedup, the
// absorb echo bound, and the install-time prune are what keep digest
// dissemination at O(n·k) entries instead of a re-flood per beat.

func digestNode() *liveNode {
	return &liveNode{
		id:         ids.Named("p1"),
		digestOut:  make(map[ids.ProcID]*digestPending),
		digestSeen: ids.NewSet(),
	}
}

func TestDigestEntryCrossesEachEdgeOnce(t *testing.T) {
	ln := digestNode()
	suspect := ids.Named("p9")
	m1, m2 := ids.Named("p2"), ids.Named("p3")

	ln.queueDigest(suspect, 0.7)
	ln.queueDigest(suspect, 0.9) // re-queue: must not reset the sent marks

	got := ln.pendingFor(m1)
	if len(got) != 1 || got[0].Suspect != suspect || got[0].Level != 0.7 {
		t.Fatalf("pendingFor(m1) = %v, want one entry for %v at level 0.7", got, suspect)
	}
	// The same edge never carries the same entry twice.
	if again := ln.pendingFor(m1); again != nil {
		t.Errorf("second pendingFor(m1) = %v, want nil", again)
	}
	// A different edge still gets it once.
	if got := ln.pendingFor(m2); len(got) != 1 {
		t.Errorf("pendingFor(m2) = %v, want one entry", got)
	}
	if again := ln.pendingFor(m2); again != nil {
		t.Errorf("second pendingFor(m2) = %v, want nil", again)
	}
}

func TestDigestQueueMarksSeen(t *testing.T) {
	// A suspicion this node itself queued must also count as seen, so a
	// digest echoing it back from a neighbor is not re-absorbed into core.
	ln := digestNode()
	ln.queueDigest(ids.Named("p7"), 1)
	if !ln.digestSeen.Has(ids.Named("p7")) {
		t.Fatal("queued suspect not marked seen")
	}
}

func TestDigestAbsorbSkipsSelfAndSeen(t *testing.T) {
	ln := digestNode()
	ln.node = nil // absorb must not reach core for self/seen entries
	seen := ids.Named("p5")
	ln.digestSeen.Add(seen)
	// Both entries are skipped before core is consulted; reaching core
	// with ln.node == nil would panic the test.
	ln.absorbDigest(SuspicionDigest{Entries: []DigestEntry{
		{Suspect: ln.id, Level: 1},
		{Suspect: seen, Level: 1},
	}})
	if ln.digestSeen.Has(ln.id) {
		t.Error("self entry entered the seen set")
	}
}

func TestDigestPruneDropsDepartedSuspects(t *testing.T) {
	ln := digestNode()
	stay, gone := ids.Named("p4"), ids.Named("p8")
	ln.queueDigest(stay, 0.5)
	ln.queueDigest(gone, 0.5)
	ln.pruneDigests(ids.NewSet(ln.id, stay))
	if _, ok := ln.digestOut[gone]; ok {
		t.Error("excluded suspect survived the install prune in digestOut")
	}
	if ln.digestSeen.Has(gone) {
		t.Error("excluded suspect survived the install prune in digestSeen")
	}
	if _, ok := ln.digestOut[stay]; !ok || !ln.digestSeen.Has(stay) {
		t.Error("in-view suspect was pruned")
	}
}

func TestDigestWireRoundTrip(t *testing.T) {
	// The digest's compact binary form (varint count, then per entry
	// site/incarnation/level) must survive the frame codec exactly —
	// it is the payload the UDP plane actually moves at scale.
	d := SuspicionDigest{Entries: []DigestEntry{
		{Suspect: ids.ProcID{Site: "p3", Incarnation: 2}, Level: 0.875},
		{Suspect: ids.Named("p11"), Level: 1},
	}}
	blob, err := transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Body: d})
	if err != nil {
		t.Fatal(err)
	}
	f, err := transport.DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Body.(SuspicionDigest)
	if !ok {
		t.Fatalf("decoded to %T", f.Body)
	}
	if len(got.Entries) != 2 || got.Entries[0] != d.Entries[0] || got.Entries[1] != d.Entries[1] {
		t.Errorf("round trip %+v, want %+v", got, d)
	}
	// Empty digest: legal on the wire, decodes to no entries.
	blob, err = transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Body: SuspicionDigest{}})
	if err != nil {
		t.Fatal(err)
	}
	f, err = transport.DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e := f.Body.(SuspicionDigest).Entries; len(e) != 0 {
		t.Errorf("empty digest decoded to %v", e)
	}
}

// --- Digest dissemination end to end -----------------------------------------

func digestOpts(n, k int) Options {
	opts := twoPlaneFast(n)
	opts.Topology = topology.RingK{K: k}
	return opts
}

func TestDigestGossipExcludesKilledMember(t *testing.T) {
	// Ring-2 over the two-plane wire: a kill must be excluded with the
	// suspicion spread by digests riding beacons — and the transports
	// must account those frames under SuspicionFrames.
	c := Start(digestOpts(8, 2))
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	v, err := c.WaitConverged(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p5")) {
		t.Fatalf("victim still in %v", v)
	}
	if st := c.TransportStats(); st.SuspicionFrames == 0 {
		t.Errorf("exclusion spread without any counted suspicion frames: %+v", st)
	}
	checkGMP(t, c, 8)
}

func TestDigestCoordinatorDeathReconfigures(t *testing.T) {
	// Kill the coordinator under ring-1 + digests: only one member
	// observes the death first-hand, and the heir (who must initiate
	// reconfiguration) learns of it through the digest flood plus the
	// point-to-point heir unicast — the one hop digests deliberately
	// keep point-to-point, because the heir cannot wait a flood's worth
	// of beacon intervals to learn it is in charge.
	c := Start(digestOpts(6, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	v, err := c.WaitConverged(25 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) {
		t.Fatalf("dead coordinator still in %v", v)
	}
	if v.Mgr() != ids.Named("p2") {
		t.Errorf("Mgr = %v, want p2", v.Mgr())
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(6),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("digest coordinator churn violates GMP:\n%v", rep)
	}
}
