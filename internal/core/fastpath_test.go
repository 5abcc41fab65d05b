package core

import (
	"encoding/json"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Differential tests for the hot-path machinery of this package: every
// fast path (frozen-snapshot graph, devirtualized flood) must be
// byte-identical to the generic path it replaces.

// indirectFlood is Flood behind a different concrete type, so the
// cascade's devirtualized flood check fails and the generic
// ForwardPolicy.Select path runs — the "before" side of the flood
// fast-path differential.
type indirectFlood struct{}

func (indirectFlood) Select(q *Query, _, from topology.NodeID, out []topology.NodeID, _ *stats.Ledger, dst []topology.NodeID) []topology.NodeID {
	for _, n := range out {
		if n == from || n == q.Origin {
			continue
		}
		dst = append(dst, n)
	}
	return dst
}
func (indirectFlood) Name() string { return "flood-indirect" }

// cascadeDelayModels are the hop-delay regimes the differentials sweep:
// in-order arrivals (zero, constant), a bounded spread (netsim) and a
// heavy tail.
func cascadeDelayModels(s *rng.Stream) map[string]DelayFunc {
	return map[string]DelayFunc{
		"zero":     ZeroDelay,
		"constant": func(_, _ topology.NodeID) float64 { return 0.1 },
		"netsim":   func(_, _ topology.NodeID) float64 { return 0.07 + 0.28*s.Float64() },
		"heavy": func(_, _ topology.NodeID) float64 {
			d := 0.01 + 0.04*s.Float64()
			if s.Intn(32) == 0 {
				d *= 1e6
			}
			return d
		},
	}
}

// outcomesJSON drives queries through c with a reused Scratch and
// marshals every outcome.
func outcomesJSON(t *testing.T, c *Cascade, queries int) []byte {
	t.Helper()
	s := NewScratch(0)
	var all []json.RawMessage
	for q := 0; q < queries; q++ {
		o := c.RunScratch(&Query{ID: QueryID(q + 1), Key: Key(q % 7), Origin: topology.NodeID(q % 20), TTL: 4}, s)
		j, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	out, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCSRSnapshotByteIdentical: cascades over a frozen CSR snapshot are
// byte-identical to cascades over the live (fully-online) network view,
// for flood and the generic-Select policies alike.
func TestCSRSnapshotByteIdentical(t *testing.T) {
	policies := map[string]func() ForwardPolicy{
		"flood":          func() ForwardPolicy { return Flood{} },
		"flood-indirect": func() ForwardPolicy { return indirectFlood{} },
		"directed-bft":   func() ForwardPolicy { return DirectedBFT{K: 2, Benefit: stats.Cumulative{}} },
	}
	for _, seed := range []uint64{3, 11} {
		for name, mk := range policies {
			run := func(freeze bool) []byte {
				g, content, s := randomCase(seed, 60, 4)
				led := stats.NewLedger()
				c := &Cascade{Graph: g, Content: content, Forward: mk(),
					Ledger: func(topology.NodeID) *stats.Ledger { return led },
					Delay:  cascadeDelayModels(s)["netsim"]}
				if freeze {
					c.Graph = g.net.Freeze()
				}
				return outcomesJSON(t, c, 40)
			}
			if a, b := string(run(true)), string(run(false)); a != b {
				t.Fatalf("seed %d policy %s: CSR and network outcomes differ", seed, name)
			}
		}
	}
}

// TestFloodFastPathByteIdentical: the devirtualized flood loop sends
// exactly what the generic Select path sends — same messages, same
// order, same outcomes — across all delay regimes.
func TestFloodFastPathByteIdentical(t *testing.T) {
	for _, seed := range []uint64{5, 19} {
		for name := range cascadeDelayModels(rng.New(0)) {
			run := func(fast bool) []byte {
				g, content, s := randomCase(seed, 60, 4)
				var p ForwardPolicy = indirectFlood{}
				if fast {
					p = Flood{}
				}
				c := &Cascade{Graph: g.net.Freeze(), Content: content, Forward: p,
					Delay: cascadeDelayModels(s)[name]}
				return outcomesJSON(t, c, 40)
			}
			if a, b := string(run(true)), string(run(false)); a != b {
				t.Fatalf("seed %d delay %s: fast and generic flood outcomes differ", seed, name)
			}
		}
	}
}

// TestFirstResultDelayGenuineZero: a genuine zero-delay first result
// must survive later, slower results — the former zero-as-unset
// sentinel made the minimum drift upward.
func TestFirstResultDelayGenuineZero(t *testing.T) {
	// 0 -> 1 -> 2; both 1 and 2 hold the key. The 0-1 link is free, the
	// 1-2 link costs 1s each way, so the first result arrives at t=0 and
	// the second at t=3 (two forward hops + two reply hops on 1-2... the
	// forward 0->1 and reply 1->0 hops are free).
	g := chain(3)
	holders := map[topology.NodeID]bool{1: true, 2: true}
	c := &Cascade{
		Graph:   g,
		Content: ContentFunc(func(id topology.NodeID, k Key) bool { return k == 1 && holders[id] }),
		Forward: Flood{},
		Delay: func(from, to topology.NodeID) float64 {
			if from == 2 || to == 2 {
				return 1
			}
			return 0
		},
	}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2, ForwardWhenHit: true})
	if len(o.Results) != 2 {
		t.Fatalf("want 2 results, got %+v", o.Results)
	}
	if o.FirstResultDelay != 0 {
		t.Fatalf("FirstResultDelay = %v, want the genuine 0 of the first result", o.FirstResultDelay)
	}
	if d, ok := o.FirstDelay(); !ok || d != 0 {
		t.Fatalf("FirstDelay() = (%v, %v), want (0, true)", d, ok)
	}
	// And set-ness is explicit: a miss reports ok=false, not delay 0.
	miss := c.Run(&Query{ID: 2, Key: 99, Origin: 0, TTL: 2})
	if d, ok := miss.FirstDelay(); ok || d != 0 {
		t.Fatalf("miss FirstDelay() = (%v, %v), want (0, false)", d, ok)
	}
}
