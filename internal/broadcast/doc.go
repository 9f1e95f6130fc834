// Package broadcast delivers totally-ordered messages within the views
// installed by the group membership protocol — the Isis-style group
// communication the paper built its GMP to carry (§1).
//
// Within a view the order is coordinator-sequenced: origins number their
// publications (PubID) and send them to the view's coordinator, which
// assigns each a slot (Ver, Seq) and fans it out; members process slots
// contiguously and acknowledge cumulatively. A slot acknowledged by every
// member of the view is *stable*: no crash or membership change can lose
// it, so that — and only that — is when a client ack fires.
//
// There is one op path, group commit (DESIGN.md §12): proposals travel in
// PubBatch frames and slots in SeqdBatch frames at every BatchConfig, and
// a batch cap of 1 (the zero Config) is simply a batch of one. The
// stability frontier rides the next SeqdBatch while one is owed and is
// broadcast at once when the group goes quiet.
//
// Across views the layer is view-synchronous by state transfer: every
// install triggers a flush barrier (each member offers its retained
// unstable log and applied frontiers to the new coordinator), the
// coordinator unions the tails into the new view's opening order, and a
// ViewSync replays it to everyone — survivors apply what they missed and
// deduplicate what they already had by per-origin PubID frontier, while
// joiners restore the snapshot the frontiers describe. Messages arriving
// for a view this member has not installed yet park in the view-change
// buffer and replay, per-channel order intact, when the install lands.
// DESIGN.md §11 explains why the flush barrier is load-bearing.
//
// The layer rides the live runtime as an application hook
// (live.Options.App): its traffic shares the group's transport but is
// fenced from both the protocol state machine and the failure detector.
package broadcast
