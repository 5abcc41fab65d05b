package live

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/netsim"
)

// frameSeeds are well-formed streams: every message type, every field
// the protocol uses, several frames behind one type definition.
func frameSeeds() [][]Envelope {
	return [][]Envelope{
		{{Type: MsgQuery, From: 3, To: 5, QueryID: 3<<32 | 1, Key: 42, Origin: 3, TTL: 3, Hops: 1, Slot: 7, Seq: 2}},
		{{Type: MsgAck, From: 9, QueryID: 3<<32 | 1, Slot: 7, Seq: 2, Served: 2, Lost: true}},
		{
			{Type: MsgHit, From: 9, QueryID: 3<<32 | 1, Key: 42, Hops: 3, Class: netsim.LAN},
			{Type: MsgAck, From: 9, QueryID: 3<<32 | 1, Slot: 65535, Seq: 63, Served: 1},
			{Type: MsgInvite, From: 1},
			{Type: MsgInviteReply, From: 2, Accept: true},
			{Type: MsgEvict, From: 1},
		},
	}
}

func encodeFrames(t testing.TB, envs []Envelope) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, env := range envs {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzDecodeFrames feeds the TCP receive path arbitrary bytes. Whatever
// a peer sends, the decoder must come back with an error rather than
// panic or hang, and every envelope it does deliver must survive a
// second trip over the wire unchanged — what a node forwards is what it
// received.
func FuzzDecodeFrames(f *testing.F) {
	for _, envs := range frameSeeds() {
		f.Add(encodeFrames(f, envs))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Envelope
		if err := decodeFrames(bytes.NewReader(data), func(env Envelope) { got = append(got, env) }); err == nil {
			t.Fatal("decodeFrames returned without an error (a stream always ends)")
		}
		if len(got) == 0 {
			return
		}
		var again []Envelope
		_ = decodeFrames(bytes.NewReader(encodeFrames(t, got)), func(env Envelope) { again = append(again, env) })
		if len(again) != len(got) {
			t.Fatalf("re-encoded %d envelopes, decoded %d", len(got), len(again))
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("envelope %d changed over the wire: %+v -> %+v", i, got[i], again[i])
			}
		}
	})
}

// TestFrameSeedsRoundTrip pins the seed streams themselves: each decodes
// to exactly the envelopes it was made from, acks included.
func TestFrameSeedsRoundTrip(t *testing.T) {
	for _, want := range frameSeeds() {
		var got []Envelope
		_ = decodeFrames(bytes.NewReader(encodeFrames(t, want)), func(env Envelope) { got = append(got, env) })
		if len(got) != len(want) {
			t.Fatalf("decoded %d of %d frames", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}
