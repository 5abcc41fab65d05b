// Command dsearchd is the long-running cluster daemon: one process
// hosts a shard of live repository nodes, finds the other shards by
// seed-list + gossip membership, and serves the HTTP/JSON
// query+control plane that pkg/searchclient speaks.
//
// Single-process cluster (every hop stays on the in-process channel
// fabric):
//
//	dsearchd -nodes 50 -degree 3 -ttl 3 -seed 42 -http 127.0.0.1:7080
//
// Three-process cluster over loopback TCP (all members must agree on
// -total, -seed, -degree, -keys and -replicas — the shared world). A
// process is one shard of several because -total exceeds -nodes. Each
// process binds one envelope listener for its whole shard and gossips
// its address; hops between its own nodes stay in-process, and it
// holds one connection per peer process for the rest:
//
//	dsearchd -total 12 -nodes 4 -base 0 -http 127.0.0.1:7080
//	dsearchd -total 12 -nodes 4 -base 4 -join 127.0.0.1:7080
//	dsearchd -total 12 -nodes 4 -base 8 -join 127.0.0.1:7080
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
	"errors"
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
	cfg, pprofAddr, err := buildConfig(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errFlags):
		os.Exit(2)
	case err != nil:
		fatalf("%v", err)
	}

	// Optional profiling plane, off by default and never on the query
	// listener. Capture a CPU profile of a running daemon with:
	//
	//	go tool pprof "http://127.0.0.1:6060/debug/pprof/profile?seconds=10"
	if pprofAddr != "" {
		go func() {
			// net/http/pprof registers on http.DefaultServeMux.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
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
	fmt.Printf("dsearchd: listening http=%s nodes=%d base=%d env=%s\n",
		srv.Addr(), cfg.Nodes, cfg.BaseID, srv.EnvAddr())

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

// errFlags is a command-line error the flag set has already printed,
// together with the usage text.
var errFlags = errors.New("dsearchd: bad flags")

// buildConfig parses the command line into a daemon configuration and
// the optional pprof listen address. Each flag is bound to its Config
// field with the ApplyDefaults value as its default, so the defaults
// live in one place. Fields derived at boot (Total, Name, Faults.Seed)
// keep their zero value, which means "derive". With -config, the file
// is decoded over the defaults and the flags given on the command line
// are applied again on top, so an explicit flag overrides the file and
// an unset one leaves the file's value alone.
func buildConfig(args []string) (daemon.Config, string, error) {
	cfg := daemon.Config{Nodes: 8}
	cfg.ApplyDefaults()
	cfg.Total, cfg.Name, cfg.Faults.Seed = 0, "", 0

	fs := flag.NewFlagSet("dsearchd", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON config file (flags override it)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty)")

	fs.StringVar(&cfg.Name, "name", cfg.Name, "cluster-unique member name (default d<base>)")
	fs.StringVar(&cfg.HTTPAddr, "http", cfg.HTTPAddr, "HTTP listen address (:0 = ephemeral)")
	fs.StringVar(&cfg.NodeHost, "node-host", cfg.NodeHost, "host the envelope listener binds on")

	fs.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "local node count")
	fs.IntVar(&cfg.BaseID, "base", cfg.BaseID, "first local node ID")
	fs.IntVar(&cfg.Total, "total", cfg.Total, "cluster node count (0 = nodes; above -nodes, this process is one shard of several)")

	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "world seed (cluster-wide)")
	fs.IntVar(&cfg.Degree, "degree", cfg.Degree, "overlay wiring degree")
	fs.IntVar(&cfg.Keys, "keys", cfg.Keys, "catalog size")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "copies per key")

	fs.IntVar(&cfg.TTL, "ttl", cfg.TTL, "default search hop limit")
	fs.StringVar(&cfg.Class, "class", cfg.Class, "bandwidth class: 56k, cable or lan")

	fs.Func("join", "seed daemon HTTP addresses, comma-separated", func(v string) error {
		cfg.Join = nil
		for _, a := range strings.Split(v, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Join = append(cfg.Join, a)
			}
		}
		return nil
	})
	fs.IntVar(&cfg.GossipIntervalMillis, "gossip-interval", cfg.GossipIntervalMillis, "gossip round interval (ms)")
	fs.IntVar(&cfg.QueryWindowMillis, "query-window", cfg.QueryWindowMillis, "fallback hit-collection window (ms): a search ends when its flood terminates, and on this window only if an ack was lost")
	fs.IntVar(&cfg.DrainTimeoutMillis, "drain-timeout", cfg.DrainTimeoutMillis, "graceful drain bound (ms)")

	fs.IntVar(&cfg.BatchWorkers, "batch-workers", cfg.BatchWorkers, "goroutines draining one /v1/query/batch slab (floods in flight per slab)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "largest query slab one batch request may carry")

	fs.Uint64Var(&cfg.Faults.Seed, "fault-seed", cfg.Faults.Seed, "fault decision-stream seed (0 = derive from -seed)")
	fs.Float64Var(&cfg.Faults.Drop, "fault-drop", cfg.Faults.Drop, "per-message drop probability [0,1)")
	fs.Float64Var(&cfg.Faults.Dup, "fault-dup", cfg.Faults.Dup, "per-message duplication probability [0,1)")
	fs.Float64Var(&cfg.Faults.Reorder, "fault-reorder", cfg.Faults.Reorder, "per-message reorder probability [0,1)")
	fs.IntVar(&cfg.Faults.DelayMinMillis, "fault-delay-min", cfg.Faults.DelayMinMillis, "injected per-message delay lower bound (ms)")
	fs.IntVar(&cfg.Faults.DelayMaxMillis, "fault-delay-max", cfg.Faults.DelayMaxMillis, "injected per-message delay upper bound (ms)")

	if err := parse(fs, args); err != nil {
		return cfg, "", err
	}
	if fs.NArg() > 0 {
		return cfg, "", fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *cfgPath != "" {
		var err error
		if cfg, err = daemon.LoadConfig(*cfgPath, cfg); err != nil {
			return cfg, "", err
		}
		// Parsing the same arguments again re-sets exactly the flags
		// given on the command line, over the file's values.
		if err := parse(fs, args); err != nil {
			return cfg, "", err
		}
	}
	return cfg, *pprofAddr, nil
}

// parse is fs.Parse with every error but a help request folded into
// errFlags, because fs has printed it already.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errFlags
}
