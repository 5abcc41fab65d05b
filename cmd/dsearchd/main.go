// Command dsearchd is the long-running cluster daemon: one process
// hosts a shard of live repository nodes, finds the other shards by
// seed-list + gossip membership, and serves the HTTP/JSON
// query+control plane that pkg/searchclient speaks.
//
// Single-process cluster (in-process channel fabric):
//
//	dsearchd -nodes 50 -degree 3 -ttl 3 -seed 42 -http 127.0.0.1:7080
//
// Three-process cluster over loopback TCP (all members must agree on
// -total, -seed, -degree, -keys and -replicas — the shared world):
//
//	dsearchd -transport tcp -total 12 -nodes 4 -base 0 -http 127.0.0.1:7080
//	dsearchd -transport tcp -total 12 -nodes 4 -base 4 -join 127.0.0.1:7080
//	dsearchd -transport tcp -total 12 -nodes 4 -base 8 -join 127.0.0.1:7080
//
// Deterministic chaos on a live cluster — seeded per-link message
// faults at boot, crash/restart via the control plane at runtime:
//
//	dsearchd -nodes 50 -seed 42 -fault-drop 0.10 -fault-delay-max 20
//	curl -d '{"node":3}' http://127.0.0.1:7080/v1/control/crash
//
// Profiling is off by default; -pprof-addr serves net/http/pprof on a
// separate listener:
//
//	dsearchd -nodes 50 -pprof-addr 127.0.0.1:6060
//	go tool pprof "http://127.0.0.1:6060/debug/pprof/profile?seconds=10"
//
// A JSON config file (-config, same field names as the flags' JSON
// tags) seeds the configuration; explicitly set flags override it.
// SIGINT/SIGTERM trigger a graceful drain: admission stops, in-flight
// queries finish, nodes drain their inboxes, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only when -pprof-addr is set
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/daemon"
)

func main() {
	var (
		cfgPath = flag.String("config", "", "JSON config file (flags override it)")
		name    = flag.String("name", "", "cluster-unique member name (default d<base>)")
		httpA   = flag.String("http", "127.0.0.1:0", "HTTP listen address (:0 = ephemeral)")
		trans   = flag.String("transport", daemon.TransportChan, "envelope transport: chan or tcp")
		host    = flag.String("node-host", "127.0.0.1", "host node listeners bind on (tcp)")

		nodes  = flag.Int("nodes", 8, "local node count")
		baseID = flag.Int("base", 0, "first local node ID")
		total  = flag.Int("total", 0, "cluster node count (0 = nodes)")

		seed     = flag.Uint64("seed", 1, "world seed (cluster-wide)")
		degree   = flag.Int("degree", 4, "overlay wiring degree")
		keys     = flag.Int("keys", 256, "catalog size")
		replicas = flag.Int("replicas", 3, "copies per key")

		ttl    = flag.Int("ttl", 4, "default search hop limit")
		policy = flag.String("policy", "flood", "forward policy registry name")
		class  = flag.String("class", "cable", "bandwidth class: 56k, cable or lan")

		join    = flag.String("join", "", "seed daemon HTTP addresses, comma-separated")
		gossipI = flag.Int("gossip-interval", 500, "gossip round interval (ms)")
		gossipF = flag.Int("gossip-fanout", 2, "peers contacted per gossip round")
		window  = flag.Int("query-window", 100, "fallback hit-collection window (ms): a search ends when its flood terminates, and on this window only if an ack was lost")
		drainT  = flag.Int("drain-timeout", 10_000, "graceful drain bound (ms)")

		batchW   = flag.Int("batch-workers", 64, "goroutines draining one /v1/query/batch slab (floods in flight per slab)")
		maxBatch = flag.Int("max-batch", 16_384, "largest query slab one batch request may carry")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty)")

		fdSuspect = flag.Int("fd-suspect-rounds", 3, "gossip rounds without a heartbeat before suspecting a member")
		fdEvict   = flag.Int("fd-evict-rounds", 6, "gossip rounds without a heartbeat before evicting a member")
		fdAmnesty = flag.Int("fd-amnesty-rounds", 12, "gossip rounds an eviction tombstone blocks rejoin")

		faultSeed     = flag.Uint64("fault-seed", 0, "fault decision-stream seed (0 = derive from -seed)")
		faultDrop     = flag.Float64("fault-drop", 0, "per-message drop probability [0,1)")
		faultDup      = flag.Float64("fault-dup", 0, "per-message duplication probability [0,1)")
		faultReorder  = flag.Float64("fault-reorder", 0, "per-message reorder probability [0,1)")
		faultDelayMin = flag.Int("fault-delay-min", 0, "injected per-message delay lower bound (ms)")
		faultDelayMax = flag.Int("fault-delay-max", 0, "injected per-message delay upper bound (ms)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	var cfg daemon.Config
	if *cfgPath != "" {
		var err error
		if cfg, err = daemon.LoadConfig(*cfgPath); err != nil {
			fatalf("%v", err)
		}
	}

	// Explicitly set flags override the file; otherwise flags only fill
	// fields the file left zero (so file values survive the defaults
	// baked into flag declarations).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg.Name == "" || set["name"] {
		cfg.Name = *name
	}
	if cfg.HTTPAddr == "" || set["http"] {
		cfg.HTTPAddr = *httpA
	}
	if cfg.Transport == "" || set["transport"] {
		cfg.Transport = *trans
	}
	if cfg.NodeHost == "" || set["node-host"] {
		cfg.NodeHost = *host
	}
	if cfg.Nodes == 0 || set["nodes"] {
		cfg.Nodes = *nodes
	}
	if cfg.BaseID == 0 || set["base"] {
		cfg.BaseID = *baseID
	}
	if cfg.Total == 0 || set["total"] {
		cfg.Total = *total
	}
	if cfg.Seed == 0 || set["seed"] {
		cfg.Seed = *seed
	}
	if cfg.Degree == 0 || set["degree"] {
		cfg.Degree = *degree
	}
	if cfg.Keys == 0 || set["keys"] {
		cfg.Keys = *keys
	}
	if cfg.Replicas == 0 || set["replicas"] {
		cfg.Replicas = *replicas
	}
	if cfg.TTL == 0 || set["ttl"] {
		cfg.TTL = *ttl
	}
	if cfg.Policy == "" || set["policy"] {
		cfg.Policy = *policy
	}
	if cfg.Class == "" || set["class"] {
		cfg.Class = *class
	}
	if *join != "" {
		cfg.Join = nil
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Join = append(cfg.Join, a)
			}
		}
	}
	if cfg.GossipIntervalMillis == 0 || set["gossip-interval"] {
		cfg.GossipIntervalMillis = *gossipI
	}
	if cfg.GossipFanout == 0 || set["gossip-fanout"] {
		cfg.GossipFanout = *gossipF
	}
	if cfg.QueryWindowMillis == 0 || set["query-window"] {
		cfg.QueryWindowMillis = *window
	}
	if cfg.DrainTimeoutMillis == 0 || set["drain-timeout"] {
		cfg.DrainTimeoutMillis = *drainT
	}
	if cfg.BatchWorkers == 0 || set["batch-workers"] {
		cfg.BatchWorkers = *batchW
	}
	if cfg.MaxBatch == 0 || set["max-batch"] {
		cfg.MaxBatch = *maxBatch
	}
	if cfg.FDSuspectRounds == 0 || set["fd-suspect-rounds"] {
		cfg.FDSuspectRounds = *fdSuspect
	}
	if cfg.FDEvictRounds == 0 || set["fd-evict-rounds"] {
		cfg.FDEvictRounds = *fdEvict
	}
	if cfg.FDAmnestyRounds == 0 || set["fd-amnesty-rounds"] {
		cfg.FDAmnestyRounds = *fdAmnesty
	}
	if cfg.Faults.Seed == 0 || set["fault-seed"] {
		cfg.Faults.Seed = *faultSeed
	}
	if cfg.Faults.Drop == 0 || set["fault-drop"] {
		cfg.Faults.Drop = *faultDrop
	}
	if cfg.Faults.Dup == 0 || set["fault-dup"] {
		cfg.Faults.Dup = *faultDup
	}
	if cfg.Faults.Reorder == 0 || set["fault-reorder"] {
		cfg.Faults.Reorder = *faultReorder
	}
	if cfg.Faults.DelayMinMillis == 0 || set["fault-delay-min"] {
		cfg.Faults.DelayMinMillis = *faultDelayMin
	}
	if cfg.Faults.DelayMaxMillis == 0 || set["fault-delay-max"] {
		cfg.Faults.DelayMaxMillis = *faultDelayMax
	}

	// Optional profiling plane, off by default and never on the query
	// listener. Capture a CPU profile of a running daemon with:
	//
	//	go tool pprof "http://127.0.0.1:6060/debug/pprof/profile?seconds=10"
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers on http.DefaultServeMux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dsearchd: pprof: %v\n", err)
			}
		}()
	}

	srv, err := daemon.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	srv.Start()
	// The three-process harness and shell scripts parse this line for
	// the ephemeral port; keep its shape stable.
	fmt.Printf("dsearchd: listening http=%s nodes=%d base=%d transport=%s\n",
		srv.Addr(), cfg.Nodes, cfg.BaseID, cfg.Transport)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("dsearchd: draining")
	if err := srv.Drain(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "dsearchd: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("dsearchd: stopped")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsearchd: "+format+"\n", args...)
	os.Exit(2)
}
