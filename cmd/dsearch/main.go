// Command dsearch is the interactive client of a running dsearchd
// daemon: stdin commands go over the daemon's HTTP/JSON plane via
// pkg/searchclient. (Nodes are hosted by dsearchd processes.)
//
// Usage:
//
//	dsearch -addr 127.0.0.1:7080 [-timeout 2s]
//
// Commands on stdin:
//
//	search <key>    query the cluster and print the hits
//	cluster         print the membership view
//	stats           print the daemon's counters
//	reconfigure     run one Algo 5 reconfiguration
//	quit            exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/pkg/searchclient"
)

func main() {
	var (
		addr    = flag.String("addr", "", "dsearchd HTTP address")
		timeout = flag.Duration("timeout", 2*time.Second, "search collection window")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *addr == "" {
		fatalf("-addr is required: the HTTP address of a running dsearchd")
	}
	window, err := windowMillis(*timeout)
	if err != nil {
		fatalf("%v", err)
	}
	clientREPL(*addr, window)
}

// windowMillis converts -timeout to the wire's whole milliseconds. The
// daemon reads 0 as "use my default window", so a value that would
// round to 0 or below is refused instead of silently replaced.
func windowMillis(timeout time.Duration) (int, error) {
	if timeout < time.Millisecond {
		return 0, fmt.Errorf("-timeout %v: must be at least 1ms", timeout)
	}
	return int(timeout / time.Millisecond), nil
}

// clientREPL drives a running dsearchd over pkg/searchclient, asking
// for a window-millisecond collection window on every search.
func clientREPL(addr string, window int) {
	c := searchclient.New(addr)
	ctx := context.Background()
	if err := c.Ready(ctx); err != nil {
		fatalf("daemon at %s not ready: %v", addr, err)
	}
	fmt.Printf("connected to dsearchd at %s\n", addr)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "search":
			if len(fields) != 2 {
				fmt.Println("usage: search <key>")
				break
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Printf("bad key: %v\n", err)
				break
			}
			resp, err := c.Query(ctx, searchclient.QueryRequest{Key: k, TimeoutMillis: window})
			if err != nil {
				fmt.Printf("query: %v\n", err)
				break
			}
			if !resp.Found() {
				fmt.Printf("NOT FOUND (origin %d)\n", resp.Origin)
			}
			for _, h := range resp.Hits {
				fmt.Printf("hit: node %d, %d hop(s), link %s\n", h.Holder, h.Hops, h.Class)
			}
		case "cluster":
			info, err := c.Cluster(ctx)
			if err != nil {
				fmt.Printf("cluster: %v\n", err)
				break
			}
			fmt.Printf("self %s, state %s, epoch %d, %d member(s)\n",
				info.Self, info.State, info.Epoch, len(info.Members))
			for _, m := range info.Members {
				fmt.Printf("  %s http=%s nodes [%d,%d)\n",
					m.Name, m.HTTP, m.BaseID, m.BaseID+m.Nodes)
			}
		case "stats":
			stats, err := c.Stats(ctx)
			if err != nil {
				fmt.Printf("stats: %v\n", err)
				break
			}
			for _, k := range sortedKeys(stats) {
				fmt.Printf("  %s %d\n", k, stats[k])
			}
		case "reconfigure":
			if err := c.Reconfig(ctx); err != nil {
				fmt.Printf("reconfigure: %v\n", err)
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("commands: search <key> | cluster | stats | reconfigure | quit")
		}
		fmt.Print("> ")
	}
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsearch: "+format+"\n", args...)
	os.Exit(2)
}
