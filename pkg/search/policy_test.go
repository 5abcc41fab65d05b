package search_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/pkg/search"
)

// fullEnv satisfies every family's dependencies.
func fullEnv() search.PolicyEnv {
	return search.PolicyEnv{
		Intn:    rng.New(1).Intn,
		MayHold: func(search.NodeID, search.Key) bool { return true },
	}
}

// TestPolicyRoundTrip: every core ForwardPolicy's Name() resolves
// back to a policy with the same name — the property that makes
// policies config- and flag-selectable.
func TestPolicyRoundTrip(t *testing.T) {
	builtins := []core.ForwardPolicy{
		core.Flood{},
		core.RandomK{K: 2, Intn: rng.New(1).Intn},
		core.RandomK{K: 7, Intn: rng.New(1).Intn},
		core.DirectedBFT{K: 2, Benefit: stats.Cumulative{}},
		core.DirectedBFT{K: 13, Benefit: stats.HitCount{}},
		core.DigestGuided{MayHold: func(search.NodeID, search.Key) bool { return true }},
	}
	for _, p := range builtins {
		name := p.Name()
		got, err := search.PolicyByName(name, fullEnv())
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if got.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q, want round-trip", name, got.Name())
		}
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	for _, name := range []string{"", "gossip", "flood-2", "random-x", "random--3", "directed-bft-0",
		"random-03", "random-+3", "directed-bft-", "-2", "digest-guided-1"} {
		if _, err := search.PolicyByName(name, fullEnv()); err == nil {
			t.Errorf("PolicyByName(%q) succeeded, want error", name)
		}
	}
}

// TestPolicyByNameBareParameterized: a parameterized family's bare name
// errors with a hint rather than building a degenerate K=0 policy.
func TestPolicyByNameBareParameterized(t *testing.T) {
	for _, name := range []string{"random", "directed-bft"} {
		_, err := search.PolicyByName(name, fullEnv())
		if err == nil || !strings.Contains(err.Error(), "parameter") {
			t.Errorf("PolicyByName(%q) = %v, want parameter-required error", name, err)
		}
	}
}

// TestPolicyMissingEnv: families with required dependencies fail
// cleanly when the environment lacks them.
func TestPolicyMissingEnv(t *testing.T) {
	if _, err := search.PolicyByName("random-2", search.PolicyEnv{}); err == nil {
		t.Error("random-2 without Intn succeeded, want error")
	}
	if _, err := search.PolicyByName("digest-guided", search.PolicyEnv{}); err == nil {
		t.Error("digest-guided without MayHold succeeded, want error")
	}
}

// TestPolicyDefaults: directed-bft ranks by the paper's Cumulative
// benefit, and digest-guided threads the fallback through.
func TestPolicyDefaults(t *testing.T) {
	p, err := search.PolicyByName("directed-bft-3", search.PolicyEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := p.(core.DirectedBFT); !ok || d.K != 3 || d.Benefit != (stats.Cumulative{}) {
		t.Errorf("directed-bft-3 resolved to %#v, want K=3 ranking by stats.Cumulative", p)
	}
	p, err = search.PolicyByName("digest-guided", search.PolicyEnv{
		MayHold:  func(search.NodeID, search.Key) bool { return false },
		Fallback: core.Flood{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := p.(core.DigestGuided); !ok || d.Fallback == nil {
		t.Errorf("digest-guided resolved to %#v, want fallback installed", p)
	}
}

// TestPolicyNames: the fixed families, sorted, with parameter
// placeholders — what repro -list-policies prints.
func TestPolicyNames(t *testing.T) {
	want := []string{"digest-guided", "directed-bft-<k>", "flood", "random-<k>"}
	if got := search.PolicyNames(); !slices.Equal(got, want) {
		t.Errorf("PolicyNames() = %v, want %v", got, want)
	}
}

// TestEngineWithPolicyResolvesRegistry: WithPolicy surfaces resolution
// errors — an unknown name, a missing dependency — at New, not per
// query.
func TestEngineWithPolicyResolvesRegistry(t *testing.T) {
	net := newTestNet(16, 3)
	if _, err := search.New(net, search.WithPolicy("no-such-policy")); err == nil {
		t.Error("New(WithPolicy(unknown)) succeeded, want error")
	}
	if _, err := search.New(net, search.WithPolicy("digest-guided")); err == nil {
		t.Error("New(WithPolicy(digest-guided)) without WithDigest succeeded, want error")
	}
	for _, name := range []string{"directed-bft-2", "random-2"} {
		if _, err := search.New(net, search.WithPolicy(name)); err != nil {
			t.Errorf("New(WithPolicy(%q)): %v", name, err)
		}
	}
}

// FuzzPolicyByName: no name panics the resolver, and every name it
// accepts is the canonical name of the policy it builds.
func FuzzPolicyByName(f *testing.F) {
	for _, seed := range []string{"flood", "random", "directed-bft", "digest-guided",
		"random-2", "directed-bft-3", "random-0", "random--3", "flood-2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := search.PolicyByName(name, fullEnv())
		if err != nil {
			return
		}
		if got := p.Name(); got != name {
			t.Fatalf("PolicyByName(%q).Name() = %q, want round-trip", name, got)
		}
	})
}
