package transport

import (
	"errors"

	"procgroup/internal/ids"
)

// BeaconPlaner is implemented by transports that carry beacon traffic on
// a dedicated plane, decoupled from stream backpressure. It is a plane
// accessor for tests and tools only: the live runtime schedules beacons
// identically on every transport and never consults it.
type BeaconPlaner interface {
	Transport
	// BeaconPlane exposes the plane beacons ride, for tests and tools
	// that inspect or degrade it independently of protocol traffic.
	BeaconPlane() Transport
}

// TwoPlane splits one group's traffic across two transports by class:
// beacon payloads (registered with RegisterBeaconPayload, MsgID 0) ride
// the datagram plane, everything else rides the stream plane. The
// planes never share a queue, a connection, or a lock — a saturated
// stream cannot delay a beacon, so the failure detector's inter-arrival
// samples measure the peer, not the peer's bulk traffic.
//
// Both planes see every Register/Unregister, so either can deliver to
// the process; handlers must tolerate that (the live runtime's mailbox
// does trivially). Typically the stream plane is *TCP and the beacon
// plane *UDP — possibly wrapped in Chaos to degrade one plane without
// the other.
type TwoPlane struct {
	stream Transport
	beacon Transport
}

// NewTwoPlane composes a stream plane and a beacon plane into one
// Transport. The composite owns both: Close closes them.
func NewTwoPlane(stream, beacon Transport) *TwoPlane {
	return &TwoPlane{stream: stream, beacon: beacon}
}

// StreamPlane exposes the plane protocol traffic rides.
func (t *TwoPlane) StreamPlane() Transport { return t.stream }

// BeaconPlane implements BeaconPlaner.
func (t *TwoPlane) BeaconPlane() Transport { return t.beacon }

// Register implements Transport: the process attaches to both planes,
// or neither.
func (t *TwoPlane) Register(p ids.ProcID, h Handler) error {
	if err := t.stream.Register(p, h); err != nil {
		return err
	}
	if err := t.beacon.Register(p, h); err != nil {
		t.stream.Unregister(p)
		return err
	}
	return nil
}

// Unregister implements Transport.
func (t *TwoPlane) Unregister(p ids.ProcID) {
	t.stream.Unregister(p)
	t.beacon.Unregister(p)
}

// Send implements Transport, routing by traffic class: beacon-class
// frames take the datagram plane, everything else the stream plane.
func (t *TwoPlane) Send(from, to ids.ProcID, m Message) {
	if isBeacon(m) {
		t.beacon.Send(from, to, m)
		return
	}
	t.stream.Send(from, to, m)
}

// Stats implements Transport: both planes' counters, merged.
func (t *TwoPlane) Stats() Stats {
	return t.stream.Stats().merge(t.beacon.Stats())
}

// Close implements Transport: both planes close; the first error wins
// but both always run.
func (t *TwoPlane) Close() error {
	return errors.Join(t.stream.Close(), t.beacon.Close())
}
