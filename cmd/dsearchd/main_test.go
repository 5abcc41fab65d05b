package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// TestBuildConfigDefaults: with no arguments the command line yields
// exactly what the daemon would default an eight-node config to — the
// flag defaults are the ApplyDefaults values, not a second copy.
func TestBuildConfigDefaults(t *testing.T) {
	got, pprofAddr, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pprofAddr != "" {
		t.Fatalf("pprof on by default at %q", pprofAddr)
	}
	got.ApplyDefaults()
	want := daemon.Config{Nodes: 8}
	want.ApplyDefaults()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("no-argument config\n got %+v\nwant %+v", got, want)
	}
}

// TestBuildConfigFileAndFlags: a -config file's values survive flags
// left unset, a flag given on the command line overrides the file, and
// flags the file does not name still apply.
func TestBuildConfigFileAndFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.json")
	if err := os.WriteFile(path, []byte(`{
		"nodes": 12, "ttl": 6, "query_window_ms": 40,
		"join": ["a:1"], "faults": {"drop": 0.2}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := buildConfig([]string{
		"-ttl", "3", "-config", path, "-join", "b:2, c:3", "-fault-dup", "0.1", "-seed", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	// File values that no flag touched.
	if cfg.Nodes != 12 || cfg.QueryWindowMillis != 40 || cfg.Faults.Drop != 0.2 {
		t.Fatalf("file values lost: %+v", cfg)
	}
	// Flags given on the command line, whether or not the file named them.
	if cfg.TTL != 3 || cfg.Seed != 9 || cfg.Faults.Dup != 0.1 ||
		!reflect.DeepEqual(cfg.Join, []string{"b:2", "c:3"}) {
		t.Fatalf("flags did not override the file: %+v", cfg)
	}
	// Fields neither names keep their defaults, derived ones stay unset.
	if cfg.Degree != 4 || cfg.Total != 0 || cfg.Name != "" {
		t.Fatalf("defaults not kept: %+v", cfg)
	}
}

func TestBuildConfigRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	retired := filepath.Join(dir, "policy.json")
	if err := os.WriteFile(retired, []byte(`{"nodes": 4, "policy": "random-2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"stray argument": {[]string{"-nodes", "4", "bogus"}, "bogus"},
		"unknown flag":   {[]string{"-bogus"}, errFlags.Error()},
		"missing file":   {[]string{"-config", filepath.Join(dir, "absent.json")}, "absent.json"},
		// Every node floods: the forward policy is not a daemon setting.
		"policy flag":  {[]string{"-policy", "random-1"}, errFlags.Error()},
		"policy field": {[]string{"-config", retired}, `"policy"`},
		// A process is one shard of several because -total exceeds -nodes.
		"transport flag": {[]string{"-transport", "tcp"}, errFlags.Error()},
	} {
		if _, _, err := buildConfig(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %q gave %v, want an error naming %s", name, tc.args, err, tc.want)
		}
	}
}
