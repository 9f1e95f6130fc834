// gmpsim runs named protocol scenarios on the deterministic simulator and
// prints the event-level story: suspicions, view installations, quits, and
// the GMP checker's verdict. With -live it instead boots the real
// goroutine runtime on a chosen transport and drives a churn scenario over
// actual sockets.
//
// Usage:
//
//	gmpsim -scenario exclusion -n 5 -seed 1
//	gmpsim -scenario reconfig -trace
//	gmpsim -live -transport twoplane -n 5
//	gmpsim -live -topology ring:3 -n 8
//	gmpsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"procgroup"
	"procgroup/internal/core"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/scenario"
)

type runner func(n int, seed int64) *scenario.Cluster

var scenarios = map[string]struct {
	about string
	run   runner
}{
	"exclusion": {"one process crashes and is excluded by the coordinator", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig()})
		c.CrashAt(c.Initial()[n-1], 50)
		return c
	}},
	"reconfig": {"the coordinator crashes; the next in rank reconfigures", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig()})
		c.CrashAt(c.Initial()[0], 50)
		return c
	}},
	"spurious": {"the coordinator wrongly suspects a live process, which must quit", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig(), MuteOracle: true})
		c.SuspectAt(c.Initial()[0], c.Initial()[n-1], 10)
		return c
	}},
	"churn": {"a stream of crashes and joins, including a coordinator failure", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig()})
		procs := c.Initial()
		c.CrashAt(procs[n-1], 50)
		c.JoinAt(ids.ProcID{Site: "q1"}, procs[1], 400)
		c.CrashAt(procs[0], 900)
		c.JoinAt(ids.ProcID{Site: "q2"}, procs[1], 1500)
		return c
	}},
	"fig3": {"Figure 3: coordinator dies mid-commit; reconfiguration repairs the split", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig(), MuteOracle: true})
		procs := c.Initial()
		c.SuspectAt(procs[0], procs[n-1], 10)
		c.CrashDuringBroadcast(procs[0], 1, core.LabelCommit)
		for _, obs := range procs[1 : n-1] {
			c.SuspectAt(obs, procs[0], 200)
		}
		return c
	}},
	"blocked": {"a majority crashes; survivors block rather than diverge", func(n int, seed int64) *scenario.Cluster {
		c := scenario.New(scenario.Options{N: n, Seed: seed, Config: core.DefaultConfig()})
		procs := c.Initial()
		for i := 0; i < n/2+1; i++ {
			c.CrashAt(procs[i], 50)
		}
		return c
	}},
}

func main() {
	name := flag.String("scenario", "exclusion", "scenario to run")
	n := flag.Int("n", 5, "initial group size")
	seed := flag.Int64("seed", 1, "schedule seed")
	traceAll := flag.Bool("trace", false, "print the full event trace")
	jsonOut := flag.String("json", "", "write the full run as JSON Lines to this file")
	list := flag.Bool("list", false, "list scenarios")
	liveRun := flag.Bool("live", false, "run the churn scenario on the live goroutine runtime instead of the simulator")
	transportName := flag.String("transport", "inmem", "live transport: inmem, or twoplane (beacons on UDP, protocol on TCP)")
	topologyName := flag.String("topology", "full", "live monitoring topology: full (all-to-all), ring:k (each member watches its k rank-successors), or hier:c:k (clusters of c in intra-cluster ring-k, stitched by a leader ring), e.g. ring:3 or hier:8:2")
	flag.Parse()

	topo, err := parseTopology(*topologyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *liveRun {
		runLive(*transportName, topo, *n)
		return
	}
	if *topologyName != "full" {
		// The simulator's failure detection is the crash oracle, not
		// beacon monitoring; topologies only exist on the live runtime.
		fmt.Fprintln(os.Stderr, "note: -topology applies to -live runs only; the simulator's detector is the oracle")
	}

	if *list {
		for name, s := range scenarios {
			fmt.Printf("%-10s %s\n", name, s.about)
		}
		return
	}
	s, ok := scenarios[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; try -list\n", *name)
		os.Exit(1)
	}
	fmt.Printf("scenario %q: %s (n=%d, seed=%d)\n\n", *name, s.about, *n, *seed)
	c := s.run(*n, *seed)
	c.Run()

	for _, e := range c.Rec.Events() {
		if !*traceAll {
			switch e.Kind {
			case event.Send, event.Recv, event.Drop, event.Start:
				continue
			}
		}
		fmt.Printf("t=%-6d %v\n", e.Time, e)
	}

	fmt.Println()
	if v, err := c.StableView(); err == nil {
		fmt.Printf("stable view: %v (coordinator %v)\n", v, v.Mgr())
	} else {
		fmt.Printf("no stable view: %v\n", err)
	}
	fmt.Printf("protocol messages: %d (exclusion %d, reconfiguration %d)\n",
		c.Messages(core.ProtocolLabels...),
		c.Messages(core.ExclusionLabels...),
		c.Messages(core.ReconfigLabels...))
	fmt.Printf("simulated time: %d ticks, %d scheduler steps\n", c.Sched.Now(), c.Sched.Steps())
	fmt.Printf("checker: %v\n", c.Check())

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json export:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := c.Rec.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "json export:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *jsonOut)
	}
}

// parseTopology resolves the -topology flag through the shared spec
// vocabulary: "full", "ring[:k]", or "hier[:c[:k]]".
func parseTopology(s string) (procgroup.Topology, error) {
	return procgroup.ParseTopology(s)
}

// runLive boots the real goroutine runtime over the named transport and
// drives a join + crash churn, printing the agreed view sequence as the
// ViewWatcher condenses it from the per-process install streams.
func runLive(transportName string, topo procgroup.Topology, n int) {
	var tr procgroup.Transport
	switch transportName {
	case "inmem":
		tr = procgroup.NewInmemTransport()
	case "twoplane":
		tr = procgroup.NewUDPBeaconTransport() // beacons on UDP, protocol on TCP
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q; want inmem or twoplane\n", transportName)
		os.Exit(1)
	}
	if n < 3 {
		n = 3
	}
	fmt.Printf("live churn over %s transport, n=%d\n\n", transportName, n)
	g := procgroup.StartGroup(procgroup.GroupOptions{
		N:              n,
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   200 * time.Millisecond,
		Transport:      tr,
		Topology:       topo,
	})
	defer g.Stop()
	w := procgroup.Watch(g)
	defer w.Close()

	step := func(what string) {
		v, err := g.WaitConverged(30 * time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			os.Exit(1)
		}
		fmt.Printf("%-28s -> converged on %v\n", what, v)
	}
	step("bootstrap")
	g.Join(procgroup.Named("q1"), procgroup.Named("p2"))
	step("join q1 via p2")
	last := g.Running()[len(g.Running())-1]
	g.Kill(last)
	step(fmt.Sprintf("kill %v", last))
	g.Kill(procgroup.Named("p1"))
	step("kill p1 (coordinator)")

	// The installs are all published, but the watcher goroutine may still
	// be forwarding them; drain until the stream goes quiet.
	fmt.Println("\nagreed view sequence:")
drain:
	for {
		select {
		case av := <-w.Views():
			fmt.Printf("  v%-3d %v\n", av.Ver, av.Members)
		case <-time.After(500 * time.Millisecond):
			break drain
		}
	}
	fmt.Printf("\ninstalls dropped from the update stream: %d\n", g.Dropped())
}
