package transport

import (
	"net"

	"procgroup/internal/ids"
)

// PairStream returns the established stream of pair {p, q}, or nil when
// the pair has none. Closing it from a test models a reset from the
// network: the mux keeps running, its reader sees the stream end, and
// the writer redials on the next frame.
func (t *TCP) PairStream(p, q ids.ProcID) net.Conn {
	t.mu.RLock()
	m := t.pairs[pairOf(p, q)]
	t.mu.RUnlock()
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conn
}
