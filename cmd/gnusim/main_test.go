package main

import (
	"math"
	"testing"
)

// TestBuildConfigRejectsBadInput: every flag value that used to panic
// the simulation (a zero network size in the catalog scaling, a NaN or
// infinite query rate in the samplers) or to be silently ignored (a
// negative worker count, a stray positional argument) comes back as a
// validation error.
func TestBuildConfigRejectsBadInput(t *testing.T) {
	valid := flags{mode: "dynamic", users: 200, hours: 6, ttl: 2, neighbors: 4, theta: 2, swaps: 1, reps: 1,
		update: "symmetric", benefit: "br", forward: "flood", rate: 12, seed: 1}
	for _, tc := range []struct {
		name string
		set  func(*flags)
	}{
		{"zero users", func(f *flags) { f.users = 0 }},
		{"negative users", func(f *flags) { f.users = -5 }},
		{"zero rate", func(f *flags) { f.rate = 0 }},
		{"negative rate", func(f *flags) { f.rate = -1 }},
		{"NaN rate", func(f *flags) { f.rate = math.NaN() }},
		{"+Inf rate", func(f *flags) { f.rate = math.Inf(1) }},
		{"NaN trial", func(f *flags) { f.trial = math.NaN() }},
		{"negative trial", func(f *flags) { f.trial = -1 }},
		{"+Inf trial", func(f *flags) { f.trial = math.Inf(1) }},
		{"negative swaps", func(f *flags) { f.swaps = -1 }},
		{"negative songs", func(f *flags) { f.songs = -5 }},
		{"zero reps", func(f *flags) { f.reps = 0 }},
		{"negative reps", func(f *flags) { f.reps = -2 }},
		{"deepening at ttl 1", func(f *flags) { f.deepening, f.ttl = true, 1 }},
		{"negative workers", func(f *flags) { f.reps, f.workers = 2, -3 }},
		{"stray argument", func(f *flags) { f.args = []string{"bogus"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := valid
			tc.set(&f)
			if _, err := buildConfig(f); err == nil {
				t.Fatalf("%+v accepted", f)
			}
		})
	}
	if _, err := buildConfig(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
