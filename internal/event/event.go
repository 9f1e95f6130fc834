package event

import (
	"fmt"

	"procgroup/internal/causal"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// Kind discriminates event types.
type Kind uint8

// The event kinds of the model.
const (
	// Start is the unique first event of every process history.
	Start Kind = iota + 1
	// Send is send(p, q, m).
	Send
	// Recv is recv(p, q, m).
	Recv
	// Drop marks a message discarded at the receiver by property S1
	// (sender believed faulty) — the "ray terminating without reaching
	// another history" in the paper's figures.
	Drop
	// Faulty is faulty_p(q): p starts believing q faulty (F1 or F2).
	Faulty
	// Operating is operating_p(q), the join-side counterpart (§7.1).
	Operating
	// Remove is remove_p(q): p deletes q from its local view.
	Remove
	// Add is add_p(q): p adds q to its local view.
	Add
	// InstallView marks a completed local view transition; Ver and
	// Members carry the resulting view.
	InstallView
	// Quit is quit_p executed by the protocol (e.g. an initiator that
	// misses its majority, or a process learning of its own exclusion).
	Quit
	// Crash is an injected crash (the environment's quit_p).
	Crash
	// Initiate marks the start of a reconfiguration attempt (§4.2).
	Initiate
)

// String names the kind as the paper spells it.
func (k Kind) String() string {
	switch k {
	case Start:
		return "start"
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Drop:
		return "drop"
	case Faulty:
		return "faulty"
	case Operating:
		return "operating"
	case Remove:
		return "remove"
	case Add:
		return "add"
	case InstallView:
		return "install"
	case Quit:
		return "quit"
	case Crash:
		return "crash"
	case Initiate:
		return "initiate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one entry in a process history.
type Event struct {
	// Index is the global sequence number within the recorded run.
	Index int
	// Seq is the 1-based position within Proc's own history.
	Seq int
	// Proc is the process executing the event.
	Proc ids.ProcID
	// Kind discriminates the event.
	Kind Kind
	// Other is the peer: message counterpart for Send/Recv/Drop, the
	// subject q for Faulty/Operating/Remove/Add.
	Other ids.ProcID
	// MsgID pairs a Recv with its Send.
	MsgID int64
	// Label carries the message kind for Send/Recv/Drop.
	Label string
	// Ver is the resulting local view version for InstallView.
	Ver member.Version
	// Members is the resulting membership for InstallView.
	Members []ids.ProcID
	// Level is the failure detector's suspicion level at the moment a
	// Faulty event fired — elapsed/threshold for the fixed-timeout
	// detector, so 1.0 is the boundary. Zero for events whose
	// suspicion did not come from a graded local detector (F2 gossip,
	// oracle injection, simulator schedules).
	Level float64
	// Time is the (virtual or wall) time of the event.
	Time int64
	// Lamport is the event's Lamport timestamp.
	Lamport uint64
	// Clock is the event's vector clock (stamped after the event).
	Clock causal.VC
}

// String renders a compact one-line description.
func (e Event) String() string {
	switch e.Kind {
	case Send, Recv, Drop:
		return fmt.Sprintf("%d %s %s(%s,%s,%s)", e.Index, e.Proc, e.Kind, e.Proc, e.Other, e.Label)
	case InstallView:
		return fmt.Sprintf("%d %s install v%d %v", e.Index, e.Proc, e.Ver, e.Members)
	case Faulty, Operating, Remove, Add:
		return fmt.Sprintf("%d %s %s(%s)", e.Index, e.Proc, e.Kind, e.Other)
	default:
		return fmt.Sprintf("%d %s %s", e.Index, e.Proc, e.Kind)
	}
}
