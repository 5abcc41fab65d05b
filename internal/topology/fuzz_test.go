package topology

import "testing"

// FuzzFreezeRoundTrip drives Network mutation with an arbitrary op
// stream — connects (including duplicate edges, which Connect must
// dedup), disconnects, and node isolation (the off-line transition) —
// then freezes the result three ways and requires every snapshot to
// reproduce the live adjacency exactly:
//
//   - Freeze into a fresh CSR,
//   - FreezeView over the same adjacency function,
//   - FreezeInto reusing the first snapshot's arrays after a second
//     round of mutation (the steady-state re-freeze path).
//
// Input grammar: one leading byte picks the size and relation regime;
// then three bytes per op (op selector, src, dst).
func FuzzFreezeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// Small asymmetric net: a few edges, one dup, one disconnect.
	f.Add([]byte{
		0x07,
		0x00, 0x01, 0x02,
		0x00, 0x01, 0x02, // duplicate edge
		0x00, 0x02, 0x03,
		0x06, 0x01, 0x02, // disconnect
	})
	// Symmetric regime with an isolation (off-line node).
	f.Add([]byte{
		0x85,
		0x00, 0x00, 0x01,
		0x00, 0x01, 0x02,
		0x00, 0x02, 0x03,
		0x07, 0x01, 0x00, // isolate node 1
		0x00, 0x03, 0x04,
	})
	// Dense little clique, heavy duplication.
	f.Add(func() []byte {
		b := []byte{0x04}
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				b = append(b, 0x00, byte(i), byte(j))
				b = append(b, 0x00, byte(i), byte(j))
			}
		}
		return b
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		header := data[0]
		n := int(header&0x3f) + 1
		relation := PureAsymmetric
		if header&0x80 != 0 {
			relation = Symmetric
		}
		net := NewNetwork(relation, n, 0, 0)

		apply := func(ops []byte) {
			for i := 0; i+2 < len(ops); i += 3 {
				op := ops[i]
				src := NodeID(int(ops[i+1]) % n)
				dst := NodeID(int(ops[i+2]) % n)
				switch op % 8 {
				case 6:
					net.Disconnect(src, dst)
				case 7:
					net.Isolate(src) // the node goes off-line
				default:
					net.Connect(src, dst)
				}
			}
		}

		// check asserts csr is an exact snapshot of net's live adjacency.
		check := func(csr *CSR, label string) {
			if csr.Len() != n {
				t.Fatalf("%s: Len = %d, want %d", label, csr.Len(), n)
			}
			if csr.EdgeCount() != edgeCount(net) {
				t.Fatalf("%s: EdgeCount = %d, want %d", label, csr.EdgeCount(), edgeCount(net))
			}
			for id := NodeID(0); int(id) < n; id++ {
				want := net.Out(id)
				got := csr.Out(id)
				if len(got) != len(want) || len(csr.Out(id)) != len(want) {
					t.Fatalf("%s: node %d degree %d (Degree %d), want %d",
						label, id, len(got), len(csr.Out(id)), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s: node %d neighbor %d = %d, want %d (order must be preserved)",
							label, id, k, got[k], want[k])
					}
				}
				if !csr.Online(id) {
					t.Fatalf("%s: snapshotted node %d reported off-line", label, id)
				}
			}
		}

		half := 1 + (len(data)-1)/2
		apply(data[1:half])
		if bad := net.AuditConsistency(); len(bad) != 0 {
			t.Fatalf("network inconsistent after ops: %v", bad)
		}

		csr := net.Freeze()
		check(csr, "Freeze")

		view, err := FreezeView(n, net.Out)
		if err != nil {
			t.Fatalf("FreezeView: %v", err)
		}
		check(view, "FreezeView")

		// Second mutation round, then the zero-alloc re-freeze path.
		apply(data[half:])
		refrozen := net.FreezeInto(csr)
		check(refrozen, "FreezeInto")
	})
}
