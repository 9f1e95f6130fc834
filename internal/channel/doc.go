// Package channel implements the paper's channel substrate (§3): the
// reliable FIFO property "requires a (1-bit) sequence number on each
// message and an acknowledgement protocol". This is the alternating-bit
// protocol: a stop-and-wait sender that retransmits the current frame until
// the matching 1-bit acknowledgement arrives, and a receiver that delivers
// a frame exactly once, in order, over a link that may lose, duplicate and
// reorder. The rest of the repository runs over netsim's already-FIFO
// channels; this package exists because the paper's model explicitly calls
// for the layer, and its tests demonstrate, on the simulator's
// deterministic scheduler, that the assumption is implementable rather
// than assumed. The live stream plane gets the same property from TCP and
// checks it with per-channel sequence numbers (internal/transport).
package channel
