package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// testPayloads covers every protocol message kind, with populated and
// zero-valued fields.
func testPayloads() []any {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	return []any{
		core.Invite{Op: member.Remove(p3), Ver: 4},
		core.OK{Ver: 4},
		core.Commit{
			Op: member.Remove(p3), Ver: 4,
			Next: member.Add(ids.Named("q1")), NextVer: 5,
			Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
		},
		core.Commit{}, // all-zero fields, nil slices
		core.Interrogate{},
		core.InterrogateOK{
			Ver: 2, Seq: member.Seq{member.Remove(p3)},
			Next:   member.Next{{Op: member.Add(p3), Coord: ids.Named("p1"), Ver: 3}, member.WildcardFor(ids.Named("p2"))},
			Faulty: []ids.ProcID{p3},
		},
		core.Propose{RL: member.Seq{member.Add(p3)}, Ver: 3, Invis: member.Remove(p3)},
		core.ProposeOK{Ver: 3},
		core.ReconfCommit{RL: member.Seq{member.Add(p3)}, Ver: 3},
		core.FaultyReport{Suspect: p3},
		core.JoinRequest{Joiner: p3},
		core.StateTransfer{Members: []ids.ProcID{p3}, Ver: 7, Coord: ids.Named("p1")},
	}
}

// TestFrameRoundTrip encodes every protocol message kind through the
// binary wire codec and checks the decoded frame is structurally
// identical — including the stream header fields (Seq, MsgID).
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range testPayloads() {
		in := Frame{From: "p1", To: "p3#2", Seq: 9, MsgID: 42, Body: payload}
		blob, err := EncodeFrame(in)
		if err != nil {
			t.Fatalf("%T: encode: %v", payload, err)
		}
		out, err := DecodeFrame(blob)
		if err != nil {
			t.Fatalf("%T: decode: %v", payload, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T: round trip\n in: %#v\nout: %#v", payload, in, out)
		}
	}
}

// noCodecPayload has no binary codec, so it cannot be encoded at all.
type noCodecPayload struct{ S string }

// TestUnencodablePayloadIsOneCountedDrop: a payload type with no codec is
// an encode error naming the type, and on every encoding transport the
// send is counted as exactly one drop and never reaches a handler.
func TestUnencodablePayloadIsOneCountedDrop(t *testing.T) {
	if _, err := EncodeFrame(Frame{From: "a", To: "b", Body: noCodecPayload{}}); err == nil ||
		!strings.Contains(err.Error(), "noCodecPayload") {
		t.Fatalf("encode error = %v, want one naming the payload type", err)
	}
	for _, tc := range []struct {
		name   string
		tr     Transport
		behind Message // an encodable frame the plane delivers
	}{
		{"tcp", NewTCP(), Message{MsgID: 2, Payload: fifoPayload{N: 2}}},
		{"udp", NewUDP(), Message{Payload: hb{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.tr.Close()
			a, b := ids.Named("a"), ids.Named("b")
			var s sink
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
				t.Fatal(err)
			}
			if err := tc.tr.Register(b, s.handler); err != nil {
				t.Fatal(err)
			}
			tc.tr.Send(a, b, Message{MsgID: 1, Payload: noCodecPayload{S: "x"}})
			waitFor(t, 5*time.Second, func() bool { return tc.tr.Stats().Dropped() >= 1 }, "the counted drop")
			// A frame behind it on the same channel still travels: the
			// bad one was skipped, not wedged in a queue.
			tc.tr.Send(a, b, tc.behind)
			waitFor(t, 10*time.Second, func() bool { return s.len() >= 1 }, "the frame behind it")
			if st := tc.tr.Stats(); st.WriteFailed != 1 || st.Dropped() != 1 {
				t.Errorf("stats = %+v, want exactly one WriteFailed drop", st)
			}
			if s.len() != 1 || s.msg(0) != tc.behind {
				t.Errorf("handler saw %d messages (first %+v), want only %+v", s.len(), s.msg(0), tc.behind)
			}
		})
	}
}

// retiredBody is a well-framed body bearing a retired kind byte: the
// header every frame carries, then fields shaped like the old Pub's.
func retiredBody(kind byte) []byte {
	var e Encoder
	e.Byte(kind)
	e.String("a")
	e.String("b")
	e.Uvarint(1)
	e.Varint(1)
	e.String("a") // origin site, incarnation, pubID, body
	e.Uvarint(0)
	e.Uvarint(1)
	e.Blob([]byte("x"))
	return e.Bytes()
}

// prefixed adds the stream plane's 4-byte length prefix to a frame body.
func prefixed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestRetiredKindsAreRejected: kinds 0 (gob), 12 (the pair mux hello),
// 18 (Pub) and 19 (Seqd) are unknown kinds now — never interpreted, never
// reassigned. Both decoders error; TCP counts DecodeFailed and closes the
// connection like for any corrupt stream; UDP counts it and keeps its
// socket.
func TestRetiredKindsAreRejected(t *testing.T) {
	for _, kind := range []byte{0, 12, 18, 19} {
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			body := retiredBody(kind)
			// The bare header is a fieldless payload's whole frame.
			for _, b := range [][]byte{body, body[:7]} {
				if _, err := DecodeFrame(b); err == nil {
					t.Errorf("datagram decoder accepted a retired kind (%d bytes)", len(b))
				}
				if _, err := ReadFrame(bytes.NewReader(prefixed(b))); err == nil {
					t.Errorf("stream decoder accepted a retired kind (%d bytes)", len(b))
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("a retired kind was registered again")
					}
				}()
				RegisterEmptyPayload(kind, struct{ retired byte }{})
			}()

			b := ids.Named("b")
			var s sink
			tcp := NewTCP()
			defer tcp.Close()
			if err := tcp.Register(b, s.handler); err != nil {
				t.Fatal(err)
			}
			addr, _ := tcp.Addr(b)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(prefixed(body)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return tcp.Stats().DecodeFailed == 1 }, "tcp decode-failed count")
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("stream stayed open after a retired-kind frame (read: %v)", err)
			}

			udp := NewUDP()
			defer udp.Close()
			if err := udp.Register(b, s.handler); err != nil {
				t.Fatal(err)
			}
			addr, _ = udp.Addr(b)
			dg, err := net.Dial("udp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer dg.Close()
			if _, err := dg.Write(body); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return udp.Stats().DecodeFailed == 1 }, "udp decode-failed count")
			if s.len() != 0 {
				t.Errorf("a retired-kind frame reached a handler: %+v", s.msg(0))
			}
		})
	}
}

// TestGoldenWireFormat pins the binary layout byte for byte: if this test
// breaks, the wire format changed and cross-version framing with it —
// bump a kind tag instead of silently re-shaping an existing encoding.
func TestGoldenWireFormat(t *testing.T) {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	cases := []struct {
		frame Frame
		hex   string
	}{
		{
			Frame{From: "p1", To: "p2", Seq: 7, MsgID: 42, Body: core.OK{Ver: 4}},
			"02027031027032075408",
		},
		{
			Frame{From: "p1", To: "p3#2", Seq: 1, MsgID: -3, Body: core.Invite{Op: member.Remove(p3), Ver: 4}},
			"0102703104703323320105010270330208",
		},
		{
			Frame{From: "p1", To: "p2", Seq: 2, MsgID: 5, Body: core.Commit{
				Op: member.Remove(p3), Ver: 4,
				Next: member.Add(ids.Named("q1")), NextVer: 5,
				Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
			}},
			"03027031027032020a01027033020802027131000a01027033020102713100",
		},
		{
			Frame{From: "p2", To: "p1", Seq: 3, MsgID: 6, Body: core.Interrogate{}},
			"04027032027031030c",
		},
		{
			Frame{From: "p2", To: "p1", Seq: 4, MsgID: 7, Body: core.InterrogateOK{
				Ver: 2, Seq: member.Seq{member.Remove(p3)},
				Next:   member.Next{{Op: member.Add(p3), Coord: ids.Named("p1"), Ver: 3}, member.WildcardFor(ids.Named("p2"))},
				Faulty: []ids.ProcID{p3},
			}},
			"05027032027031040e040101027033020202027033020270310006000000000270320000010102703302",
		},
		{
			Frame{From: "p4", To: "p5", Seq: 9, MsgID: 8, Body: core.StateTransfer{
				Members: []ids.ProcID{ids.Named("p1"), p3}, Ver: 7,
				Seq:   member.Seq{member.Add(p3)},
				Coord: ids.Named("p1"), Next: member.Remove(p3), NextVer: 8,
			}},
			"0b02703402703509100202703100027033020e01020270330202703100010270330210",
		},
	}
	for _, tc := range cases {
		got, err := EncodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%T: encode: %v", tc.frame.Body, err)
		}
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: wire bytes changed\n got %x\nwant %x", tc.frame.Body, got, want)
		}
		back, err := DecodeFrame(want)
		if err != nil {
			t.Fatalf("%T: golden bytes no longer decode: %v", tc.frame.Body, err)
		}
		if !reflect.DeepEqual(tc.frame, back) {
			t.Errorf("%T: golden decode\n in: %#v\nout: %#v", tc.frame.Body, tc.frame, back)
		}
	}
}

// TestFrameStreamFraming writes several frames to one stream and reads
// them back in order — the length-prefix discipline TCP connections use.
func TestFrameStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	for i := int64(1); i <= 5; i++ {
		f := Frame{From: "p1", To: "p2", MsgID: i, Body: core.OK{Ver: member.Version(i)}}
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.MsgID != i {
			t.Errorf("frame %d read out of order: got MsgID %d", i, f.MsgID)
		}
	}
}

// TestReadFrameRejectsOversizedLength guards the corruption path: a bogus
// length prefix must error out, not allocate gigabytes.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	buf := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestDecodeFrameRejectsCorruption: truncations, trailing garbage, and
// unknown kinds must all error, never panic or mis-decode.
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	blob, err := EncodeFrame(Frame{From: "p1", To: "p3#2", Seq: 9, MsgID: 42, Body: core.Commit{
		Faulty: []ids.ProcID{ids.Named("p2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeFrame(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := DecodeFrame(append(append([]byte{}, blob...), 0x01)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeFrame([]byte{0xfe, 0x00}); err == nil {
		t.Error("unknown kind tag accepted")
	}
	// A corrupt slice count must not force a huge allocation.
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)-1] = 0xff
	DecodeFrame(corrupt) // must not panic; error or partial decode both fine
}

// TestDecodeFrameRejectsOverflowingCount: a hostile 64-bit slice count
// must fail the bounds check, not wrap it and panic make() with a
// negative capacity (one such frame from any peer would crash the
// process via the TCP read loop).
func TestDecodeFrameRejectsOverflowingCount(t *testing.T) {
	var e Encoder
	e.Byte(kindPropose) // Propose: RL (Seq), Ver, Invis, Faulty
	e.String("p1")
	e.String("p2")
	e.Uvarint(1)       // channel Seq
	e.Varint(1)        // MsgID
	e.Uvarint(1 << 63) // RL count: n*minElem wraps to 0
	if _, err := DecodeFrame(e.Bytes()); err == nil {
		t.Fatal("overflowing slice count accepted")
	}
}

// TestDecoderNeverAliasesInput: the read path reuses body buffers, so a
// decoded frame must survive the buffer being clobbered.
func TestDecoderNeverAliasesInput(t *testing.T) {
	in := Frame{From: "proc-one", To: "proc-two", Seq: 1, MsgID: 2, Body: core.JoinRequest{Joiner: ids.Named("joiner")}}
	blob, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xAA
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("decoded frame aliased its input buffer:\n in: %#v\nout: %#v", in, out)
	}
}

// TestEmptyPayloadDecodesToCanonicalValue: fieldless payloads decode to
// the registered prototype without allocating a fresh value.
func TestEmptyPayloadDecodesToCanonicalValue(t *testing.T) {
	blob, err := EncodeFrame(Frame{From: "a", To: "b", Seq: 1, Body: core.Interrogate{}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Body.(core.Interrogate); !ok {
		t.Fatalf("decoded %T, want core.Interrogate", f.Body)
	}
}
