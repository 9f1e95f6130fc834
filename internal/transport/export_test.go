package transport

import (
	"net"

	"procgroup/internal/ids"
)

// PairStream returns the established stream of the p→q link, or nil when
// the channel has none. Closing it from a test models a reset from the
// network: the link keeps running, both ends see the stream end, and the
// writer redials on the next frame.
func (t *TCP) PairStream(p, q ids.ProcID) net.Conn {
	t.mu.RLock()
	l := t.links[chanKey{p, q}]
	t.mu.RUnlock()
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}
