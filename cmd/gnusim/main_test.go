package main

import (
	"math"
	"testing"
)

// TestBuildConfigRejectsBadInput: every flag value that used to panic
// the simulation (a zero network size in the catalog scaling, a NaN or
// infinite query rate in the samplers) comes back as a validation error.
func TestBuildConfigRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		users int
		rate  float64
	}{
		{"zero users", 0, 12},
		{"negative users", -5, 12},
		{"zero rate", 200, 0},
		{"negative rate", 200, -1},
		{"NaN rate", 200, math.NaN()},
		{"+Inf rate", 200, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildConfig("dynamic", tc.users, 0, 6, 2, 4, 2, 1,
				"symmetric", "br", "flood", false, false, tc.rate, 1)
			if err == nil {
				t.Fatalf("users=%d rate=%v accepted", tc.users, tc.rate)
			}
		})
	}
	if _, err := buildConfig("dynamic", 200, 0, 6, 2, 4, 2, 1,
		"symmetric", "br", "flood", false, false, 12, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
