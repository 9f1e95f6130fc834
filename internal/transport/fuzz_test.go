package transport

import (
	"bytes"
	"testing"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// FuzzReadFrame hammers the stream decode path with truncated, corrupted
// and adversarial input: whatever arrives, ReadFrame must return a frame
// or an error — never panic, never over-allocate past maxFrame. Valid
// decodes must re-encode, proving the decoded value is inside the codec's
// domain.
//
// The seed corpus is built from real encodings, plus well-framed bodies
// bearing the retired kinds, so mutation starts from structurally
// plausible bytes.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr Frame) {
		blob, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		framed := prefixed(blob)
		f.Add(framed)
		if len(framed) > 6 {
			f.Add(framed[:len(framed)-3]) // truncated body
			f.Add(framed[:2])             // truncated header
		}
	}
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	seed(Frame{From: "p1", To: "p2", Seq: 7, MsgID: 42, Body: core.OK{Ver: 4}})
	seed(Frame{From: "p1", To: "p3#2", Seq: 1, MsgID: 5, Body: core.Commit{
		Op: member.Remove(p3), Ver: 4, Faulty: []ids.ProcID{p3},
	}})
	seed(Frame{From: "p2", To: "p1", Seq: 4, MsgID: 7, Body: core.InterrogateOK{
		Ver: 2, Seq: member.Seq{member.Remove(p3)}, Next: member.Next{member.WildcardFor(ids.Named("p2"))},
	}})
	for _, kind := range []byte{0, 12, 18, 19} {
		f.Add(prefixed(retiredBody(kind)))
	}
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xfe, 0x01}) // unknown kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // oversized length
	{                                                 // hostile 64-bit slice count (would wrap a multiplicative bound)
		var e Encoder
		e.Byte(6) // Propose
		e.String("p1")
		e.String("p2")
		e.Uvarint(1)
		e.Varint(1)
		e.Uvarint(1 << 63)
		f.Add(prefixed(e.Bytes()))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil || fr.Body == nil {
			return // errors are expected on corrupt input
		}
		if _, err := EncodeFrame(fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%#v)", err, fr)
		}
	})
}

// FuzzReadDatagram is FuzzReadFrame's sibling for the datagram plane:
// one UDP payload is one bare frame body (no length prefix — the
// datagram boundary frames it), fed straight to DecodeFrame exactly as
// UDP's read loop does. Whatever a hostile or corrupt datagram carries,
// decode must return a frame or an error — never panic — and valid
// decodes must re-encode.
func FuzzReadDatagram(f *testing.F) {
	seed := func(fr Frame) {
		blob, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if len(blob) > 3 {
			f.Add(blob[:len(blob)-3]) // truncated tail — the kernel cannot, but a peer can
		}
	}
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	seed(Frame{From: "p1", To: "p2", Body: core.OK{Ver: 4}})
	seed(Frame{From: "p1", To: "p2", Body: hb{}}) // beacon-shaped: kind + identifiers only
	seed(Frame{From: "p1", To: "p3#2", MsgID: 5, Body: core.Commit{
		Op: member.Remove(p3), Ver: 4, Faulty: []ids.ProcID{p3},
	}})
	for _, kind := range []byte{0, 12, 18, 19} {
		f.Add(retiredBody(kind))
	}
	f.Add([]byte{})           // zero-length datagram
	f.Add([]byte{0xfe, 0x01}) // unknown kind
	{                         // hostile 64-bit slice count (would wrap a multiplicative bound)
		var e Encoder
		e.Byte(6) // Propose
		e.String("p1")
		e.String("p2")
		e.Uvarint(0)
		e.Varint(1)
		e.Uvarint(1 << 63)
		f.Add(e.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil || fr.Body == nil {
			return
		}
		if _, err := EncodeFrame(fr); err != nil {
			t.Fatalf("decoded datagram does not re-encode: %v (%#v)", err, fr)
		}
	})
}
