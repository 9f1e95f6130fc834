package broadcast

import (
	"bytes"
	"encoding/binary"
	"testing"

	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// FuzzReadBatch mirrors transport's FuzzReadFrame for the group-commit
// frames: whatever a truncated, mutated, or hostile stream carries into a
// PubBatch/SeqdBatch decode, ReadFrame must return a frame or an error —
// never panic, never over-allocate past the input that arrived (the arena
// decode sizes itself from Remaining, so a lying count cannot force more).
// Valid decodes must re-encode, proving the value is inside the codec's
// domain.
func FuzzReadBatch(f *testing.F) {
	seed := func(fr transport.Frame) {
		blob, err := transport.EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
		buf.Write(hdr[:])
		buf.Write(blob)
		f.Add(buf.Bytes())
		if len(buf.Bytes()) > 6 {
			f.Add(buf.Bytes()[:len(buf.Bytes())-3]) // truncated body
		}
	}
	px := ids.ProcID{Site: "p3", Incarnation: 2}
	seed(transport.Frame{From: "p1", To: "p2", Seq: 3, Body: PubBatch{
		Origin: px,
		Pubs:   []PubItem{{PubID: 7, Body: []byte("set k v")}, {PubID: 8, Body: []byte("set k2 w")}},
	}})
	seed(transport.Frame{From: "p1", To: "p2", Seq: 3, Body: PubBatch{Origin: px}})
	seed(transport.Frame{From: "p1", To: "p3#2", Seq: 9, Body: SeqdBatch{
		Ver: 3, FirstSeq: 12, Stable: 9,
		Entries: []SeqdItem{{Origin: px, PubID: 7, Body: []byte("set k v")}, {Origin: px, PubID: 8}},
	}})
	seed(transport.Frame{From: "p1", To: "p2", Body: SeqdBatch{Ver: 4}})
	{ // hostile 64-bit item count inside a SeqdBatch
		var e transport.Encoder
		e.Byte(kindSeqdBatch)
		e.String("p1")
		e.String("p2")
		e.Uvarint(1)       // channel seq
		e.Varint(0)        // msg id
		e.Uvarint(3)       // ver
		e.Uvarint(1)       // first seq
		e.Uvarint(0)       // stable
		e.Uvarint(1 << 62) // item count
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(e.Bytes())))
		f.Add(append(hdr[:], e.Bytes()...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := transport.ReadFrame(bytes.NewReader(data))
		if err != nil || fr.Body == nil {
			return
		}
		if _, err := transport.EncodeFrame(fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%#v)", err, fr)
		}
	})
}
