package core

import (
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// Env is the runtime a Node executes against. The simulator and the live
// goroutine runtime provide different implementations; the protocol code is
// identical over both. All Env methods are invoked from within the node's
// (single-threaded) event handlers.
type Env interface {
	// Send transmits a protocol payload to another process.
	Send(to ids.ProcID, payload any)
	// After schedules fn after d abstract ticks (virtual time in the
	// simulator, milliseconds live) and returns a cancel function. fn
	// runs serialized with message delivery.
	After(d int64, fn func()) (cancel func())
	// Quit halts this process permanently; the environment treats it
	// exactly like a crash (quit_p in the model, §2.1).
	Quit()
	// Record logs a protocol-internal event (faulty, remove, initiate…).
	Record(k event.Kind, other ids.ProcID)
	// RecordInstall logs a completed local view transition.
	RecordInstall(ver member.Version, members []ids.ProcID)
}

// LevelRecorder is an optional Env extension. Environments whose failure
// detector grades its suspicions (the live runtime's accrual detector
// emits φ values) implement it so Faulty events recorded through
// Node.SuspectWithLevel carry the detector's confidence into the trace;
// environments without it fall back to the ungraded Record.
type LevelRecorder interface {
	// RecordLevel logs a protocol-internal event with the failure
	// detector's suspicion level attached.
	RecordLevel(k event.Kind, other ids.ProcID, level float64)
}

// SuspicionGossiper is an optional Env extension for partial monitoring
// topologies. Under all-to-all monitoring every process observes every
// failure itself, so F2 gossip plus the GMP-5 report to the coordinator
// disseminate everything that matters. Under a partial topology (e.g.
// ring-k) a failure is observed only by the suspect's few monitors — and
// when the suspect is the coordinator itself, reportSuspicions has nowhere
// to report. A gossiping environment batches every pending suspicion into
// a compact digest riding the beacons it already sends, so disseminating
// f suspicions costs digest *entries* on frames that were crossing the
// wire anyway.
//
// When GossipActive reports true, the node hands each point-to-point-
// learned suspicion (its own detector's, a FaultyReport's, a surmise) to
// GossipSuspicion, and suspicions learned *from* a digest
// (Node.GossipSuspectWithLevel) are treated like broadcast gossip —
// adopted and re-gossiped, but not re-reported to the coordinator,
// because the digest flood reaches the coordinator too. Suspicions
// learned from broadcast gossip (Commit/Propose/ReconfCommit
// contingencies, an initiator's inferable HiFaulty) are never gossiped:
// the broadcast already reached everyone a digest could. Environments
// without the extension (the simulator) or reporting GossipActive false
// (all-to-all monitoring) disseminate nothing beyond the protocol's own
// messages, so the §7.2 message-count pins stand there.
type SuspicionGossiper interface {
	// GossipActive reports whether the current view's monitoring is
	// partial. Consulted per suspicion, so an environment may flip it
	// between views.
	GossipActive() bool
	// GossipSuspicion hands a point-to-point-learned suspicion to the
	// environment for batching into its next outgoing digests.
	GossipSuspicion(q ids.ProcID, level float64)
}

// ReadmissionGovernor is an optional Env extension that rate-limits
// readmissions. The paper's join path (§7) admits any recovered process
// whenever the coordinator learns of it — correct under crash-stop, but a
// *flapping* process (repeatedly excluded by timing mistakes, rejoining
// with a fresh incarnation each time) then drives one reconfiguration per
// flap, and every reconfiguration is a majority round the whole group
// pays for. Environments that implement this extension get consulted
// before the coordinator draws an Add from Recovered(Mgr); a vetoed
// joiner simply stays queued — the coordinator re-consults on later
// steps (join retries re-trigger them, and the environment may Poke), so
// admission is delayed, never denied. Exclusion safety is untouched:
// only Adds are governed.
type ReadmissionGovernor interface {
	// AdmitJoiner reports whether the coordinator may admit q now. The
	// environment owns the policy (the live runtime meters a token
	// bucket per site name); returning false defers the add. The method
	// may be called several times for one admission (round chaining,
	// reconfiguration), so implementations must treat a grant as open
	// until the add commits rather than charging each call.
	AdmitJoiner(q ids.ProcID) bool
}

// Config tunes which variant of the algorithm a node runs.
type Config struct {
	// Compression enables §3.1's condensed rounds: a commit carrying a
	// contingent next operation doubles as the next invitation
	// (2n−3 messages per exclusion instead of 3n−5). The paper's final
	// algorithm compresses; disabling reproduces the plain two-phase
	// numbers.
	Compression bool
	// MajorityCheck makes the coordinator require a majority of OKs
	// before committing (the §7.1 final algorithm). With it disabled the
	// basic §3.1 algorithm tolerates |Memb|−1 failures but is only safe
	// while the coordinator cannot fail. After a node has participated
	// in any reconfiguration it enforces the majority gate regardless
	// ("Observe that Mgr must henceforth garner responses from a
	// majority of processes before it can commit any removals", §4.5).
	MajorityCheck bool
	// ReconfigWait is how long a process that suspects the coordinator
	// waits for a higher-ranked process to start reconfiguration before
	// suspecting that process too (Table 1's "Eventually" row). Zero
	// disables the timeout; suspicions then come only from the failure
	// detector.
	ReconfigWait int64
	// JoinRetry is how long a joiner waits for its StateTransfer before
	// re-sending the join request to its contact (the original may have
	// died with a failed coordinator). Zero disables retries.
	JoinRetry int64
	// AwaitWait is the partial-topology await fallback. Every await
	// clause of the protocol ("OK(p) or faulty_Mgr(p)", Figs. 8–10)
	// terminates because F1 eventually reports any crashed member — an
	// assumption that silently relies on every awaiting process
	// monitoring every member. Under a partial monitoring topology a
	// dead member's only monitors can themselves die or be excluded
	// before their suspicion propagates, leaving a round or a
	// reconfiguration phase wedged on a member nobody watches anymore.
	// AwaitWait > 0 arms a timer per await: once a round or phase has
	// sat unresolved that long, the awaiting process surmises faulty of
	// every still-unaccounted member — its own local F1 input, wrong
	// detections being legal (§2.2) and Table 1's surmise being the
	// precedent. Zero disables the fallback (the default: all-to-all
	// monitoring feeds every await through the detector itself).
	AwaitWait int64
	// TwoPhaseReconfig is the §7.3 strawman: reconfiguration skips the
	// proposal phase and commits straight after interrogation. Claim 7.2
	// proves this cannot solve GMP — without the Phase-II majority there
	// is no way to detect which of two competing proposals was committed
	// invisibly. It exists only so the baseline suite can demonstrate the
	// resulting GMP-3 violation; never enable it in real configurations.
	TwoPhaseReconfig bool
}

// DefaultConfig is the paper's final algorithm: compression on, majority
// gate on, initiation timeout armed.
func DefaultConfig() Config {
	return Config{
		Compression:   true,
		MajorityCheck: true,
		ReconfigWait:  400,
		JoinRetry:     800,
	}
}
