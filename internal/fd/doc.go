// Package fd is the failure-detection substrate — the F1 mechanism the
// paper deliberately abstracts (§2.2): "we are not concerned with the
// details of the mechanism used here, but for liveness, we do assume that
// it occurs in finite time after a real crash". Detections may be wrong;
// staying consistent despite that is GMP's whole contribution (§2.3). The
// package provides one implementation per substrate:
//
//   - Oracle (fd.go) serves the simulator: it watches crashes on the
//     simulated network and delivers faulty_p(q) suspicions after a
//     configurable per-observer delay, with injection hooks for the
//     spurious suspicions the adversarial scenarios need (Table 1,
//     Figure 11).
//
//   - Timeout (detector.go) serves the live runtime: the classic fixed
//     silence threshold, extracted behavior-preservingly from the
//     pre-refactor heartbeat loop (the extraction is pinned bit-for-bit
//     by TestTimeoutMatchesPreRefactorBeatLoop). It is the only live
//     policy: the paper needs just eventual suspicion of a crash, and
//     an adaptive rival measured against it under hostile timing never
//     reliably matched its zero-mistake level (EXPERIMENTS.md, E16).
//
//   - Hysteresis (hysteresis.go) optionally wraps the timeout: a
//     crossing must survive a dwell of continuous silence before it
//     surfaces, flapping peers earn more dwell, and the shared
//     HysteresisStats ledger counts crossings and mistakes — the
//     detection-time and mistake-rate QoS quantities E22 reports.
//
// Live detectors implement the Detector interface and are chosen per
// group through a Factory (GroupOptions.Detector in the root API); they
// are driven entirely from each node's event loop with explicit
// timestamps, so synthetic arrival schedules unit-test exactly the code
// the live runtime runs.
package fd
