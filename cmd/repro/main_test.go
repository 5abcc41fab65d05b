package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: every input that used to be ignored, or to
// fail only after the whole run, exits 2 before any cell runs, with an
// error that names the offending value.
func TestRunRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "mem.pprof")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stray argument", []string{"fig3b"}, `"fig3b"`},
		{"stray argument after flags", []string{"-only", "fig3b", "extra"}, `"extra"`},
		{"negative workers", []string{"-workers", "-3", "-only", "fig3b"}, "-workers -3"},
		{"uncreatable memprofile", []string{"-memprofile", missing, "-only", "fig3b"}, missing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not name %s", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run printed tables:\n%s", stdout.String())
			}
		})
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "fig3b") {
		t.Fatalf("-list: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
