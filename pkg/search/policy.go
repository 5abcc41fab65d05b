package search

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// PolicyEnv supplies the runtime dependencies a forward policy may
// need. Engines fill it from their options; direct PolicyByName callers
// fill only what their policy consumes (a stateless family like
// "flood" needs nothing).
type PolicyEnv struct {
	// Intn supplies uniform integers for "random-<k>". The Engine
	// derives a fresh deterministic stream per query (see WithSeed), so
	// concurrent searches never contend on — or nondeterministically
	// interleave — one generator.
	Intn func(n int) int
	// MayHold backs "digest-guided": does node id's published digest
	// admit key? Required by that family.
	MayHold func(id NodeID, key Key) bool
	// Fallback is "digest-guided"'s policy of last resort when no
	// neighbor digest matches; nil means "forward to none".
	Fallback core.ForwardPolicy
}

// PolicyByName resolves a ForwardPolicy from its name — the exact
// string the policy's Name method reports, so every policy round-trips:
// PolicyByName(p.Name(), env).Name() == p.Name(). The names are
// "flood", "random-<k>", "directed-bft-<k>" (ranking peers by the
// paper's Σ B/R, stats.Cumulative) and "digest-guided", each mirroring
// one of internal/core's ForwardPolicy implementations. Unknown names
// and missing environment dependencies return errors.
func PolicyByName(name string, env PolicyEnv) (core.ForwardPolicy, error) {
	family, k, err := parsePolicy(name)
	if err != nil {
		return nil, err
	}
	switch family {
	case "random":
		if env.Intn == nil {
			return nil, fmt.Errorf("search: policy %s needs PolicyEnv.Intn (or an Engine, which derives it from WithSeed)", name)
		}
		return core.RandomK{K: k, Intn: env.Intn}, nil
	case "directed-bft":
		return core.DirectedBFT{K: k, Benefit: stats.Cumulative{}}, nil
	case "digest-guided":
		if env.MayHold == nil {
			return nil, fmt.Errorf("search: policy digest-guided needs PolicyEnv.MayHold (WithDigest on an Engine)")
		}
		return core.DigestGuided{MayHold: env.MayHold, Fallback: env.Fallback}, nil
	}
	return core.Flood{}, nil
}

// parsePolicy splits a policy name into its family and the parameter
// of a "<family>-<k>" name (0 for "flood" and "digest-guided"). The
// parameter must be written as Name writes it — a positive decimal
// without sign or leading zeros — so every accepted name round-trips.
func parsePolicy(name string) (family string, k int, err error) {
	switch name {
	case "flood", "digest-guided":
		return name, 0, nil
	case "random", "directed-bft":
		return "", 0, fmt.Errorf("search: policy family %q requires a parameter, e.g. %q", name, name+"-2")
	}
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		family = name[:i]
		k, err := strconv.Atoi(name[i+1:])
		if (family == "random" || family == "directed-bft") && err == nil && k > 0 && strconv.Itoa(k) == name[i+1:] {
			return family, k, nil
		}
	}
	return "", 0, fmt.Errorf("search: unknown policy %q (known: %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists the policy families, sorted; parameterized
// families are shown with a "-<k>" placeholder.
func PolicyNames() []string {
	return []string{"digest-guided", "directed-bft-<k>", "flood", "random-<k>"}
}
