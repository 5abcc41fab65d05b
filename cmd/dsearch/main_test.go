package main

import (
	"strings"
	"testing"
	"time"
)

// TestWindowMillisRejectsBadTimeout: every -timeout the daemon would
// read as "no window given" (zero, negative, or under a millisecond,
// which truncates to zero) is refused with an error naming the flag.
func TestWindowMillisRejectsBadTimeout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"zero", 0},
		{"negative", -time.Second},
		{"sub-millisecond", 500 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := windowMillis(tc.timeout)
			if err == nil || !strings.Contains(err.Error(), "-timeout") {
				t.Fatalf("-timeout %v: err = %v, want a -timeout complaint", tc.timeout, err)
			}
		})
	}
	if ms, err := windowMillis(2 * time.Second); err != nil || ms != 2000 {
		t.Fatalf("-timeout 2s = %d ms, %v; want 2000", ms, err)
	}
}
