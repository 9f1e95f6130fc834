// Package topology makes the monitoring relation of the live runtime a
// pluggable policy: a Topology maps a view's membership to the set of
// members each process watches, decoupling *who monitors whom* from *who
// is a member*. Full reproduces the pre-extraction all-to-all behavior;
// RingK monitors k rank-successors around the seniority ring, cutting
// beacon traffic from O(n²) to O(n·k) while suspicion digests riding the
// beacons preserve F1's eventual-suspicion contract; Hier cuts
// the seniority order into contiguous clusters of C — each an
// intra-cluster ring-K, stitched by a ring-K of the cluster leaders —
// keeping O(n·k) beacons while shrinking the suspicion-dissemination
// diameter from O(n/k) hops to O(C/K + n/(C·K)), the shape that holds
// exclusion latency flat past the flat ring's scale wall (DESIGN.md
// §10, experiment E19). Every implementation is stateless and
// recomputed per install, so churn re-closes the rings; Parse resolves
// the CLI vocabulary ("full", "ring:k", "hier:c:k") shared by gmpsim
// and gmpbench.
package topology
