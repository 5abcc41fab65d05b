package main

import (
	"os"
	"path/filepath"
	"reflect"
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
		"nodes": 12, "ttl": 6, "policy": "random-2", "query_window_ms": 40,
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
	if cfg.Nodes != 12 || cfg.Policy != "random-2" || cfg.QueryWindowMillis != 40 || cfg.Faults.Drop != 0.2 {
		t.Fatalf("file values lost: %+v", cfg)
	}
	// Flags given on the command line, whether or not the file named them.
	if cfg.TTL != 3 || cfg.Seed != 9 || cfg.Faults.Dup != 0.1 ||
		!reflect.DeepEqual(cfg.Join, []string{"b:2", "c:3"}) {
		t.Fatalf("flags did not override the file: %+v", cfg)
	}
	// Fields neither names keep their defaults, derived ones stay unset.
	if cfg.Degree != 4 || cfg.Transport != daemon.TransportChan || cfg.Total != 0 || cfg.Name != "" {
		t.Fatalf("defaults not kept: %+v", cfg)
	}
}

func TestBuildConfigRejectsBadInput(t *testing.T) {
	for name, args := range map[string][]string{
		"stray argument": {"-nodes", "4", "bogus"},
		"unknown flag":   {"-bogus"},
		"missing file":   {"-config", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if _, _, err := buildConfig(args); err == nil {
			t.Errorf("%s: %q accepted", name, args)
		}
	}
}
