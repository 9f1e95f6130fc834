package procgroup

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startKV boots a three-member group hosting kv's replicas.
func startKV(t *testing.T, kv *ReplicaSet) *Group {
	t.Helper()
	g := StartGroup(GroupOptions{N: 3, App: kv.Factory()})
	if _, err := g.WaitConverged(5 * time.Second); err != nil {
		g.Stop()
		t.Fatal(err)
	}
	return g
}

// putAll issues n puts over keys distinct keys from workers concurrent
// clients, spread over every member.
func putAll(t *testing.T, g *Group, kv *ReplicaSet, n, keys, workers int) {
	t.Helper()
	members := g.Running()
	val := fmt.Sprintf("%064d", 0)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				p := members[i%len(members)]
				if _, err := kv.Propose(p, KVPut(fmt.Sprintf("k%d", i%keys), val), 10*time.Second); err != nil {
					errs <- fmt.Errorf("put %d via %v: %w", i, p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReplicaSetCertifiesWhenOptedIn(t *testing.T) {
	kv := NewReplicatedKV().WithCertification()
	g := startKV(t, kv)
	defer g.Stop()
	putAll(t, g, kv, 200, 16, 4)
	if kv.Recorder() == nil {
		t.Fatal("a set built WithCertification has no recorder")
	}
	if err := kv.CheckTotalOrder(g.Running()); err != nil {
		t.Fatalf("certification: %v", err)
	}
}

func TestReplicaSetWithoutCertificationRefusesToCheck(t *testing.T) {
	kv := NewReplicatedKV()
	g := startKV(t, kv)
	defer g.Stop()
	putAll(t, g, kv, 20, 4, 1)
	if kv.Recorder() != nil {
		t.Fatal("the default set built a recorder")
	}
	if err := kv.CheckTotalOrder(g.Running()); err == nil {
		t.Fatal("CheckTotalOrder certified a set that recorded nothing")
	}
}

// TestReplicaSetDefaultHeapStaysFlat: the default set keeps no per-command
// record, so 20,000 puts over a fixed keyspace leave the heap after GC
// where it was (0.4 MB). Recording every applied command at every
// replica, as the set once did by default, grows it by about 9 MB over
// the same puts on these three members.
func TestReplicaSetDefaultHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000 live puts")
	}
	kv := NewReplicatedKV().WithBatching(BatchConfig{MaxEntries: 128}, AckConfig{Every: 16})
	g := startKV(t, kv)
	defer g.Stop()
	const keys, workers = 256, 64
	putAll(t, g, kv, 2000, keys, workers) // fill the keyspace and the pools
	before := heapAfterGC()
	putAll(t, g, kv, 20000, keys, workers)
	after := heapAfterGC()
	const bound = 4 << 20
	if grew := int64(after) - int64(before); grew > bound {
		t.Fatalf("heap grew %.1f MB over 20,000 puts (%.1f → %.1f MB), want under %d MB",
			float64(grew)/(1<<20), float64(before)/(1<<20), float64(after)/(1<<20), bound>>20)
	}
	t.Logf("heap after GC: %.1f → %.1f MB over 20,000 puts", float64(before)/(1<<20), float64(after)/(1<<20))
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
