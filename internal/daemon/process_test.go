package daemon

import (
	"bufio"
	"context"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/pkg/searchclient"
)

// dsearchdProc is one real dsearchd OS process under test.
type dsearchdProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startDaemon launches the built binary and parses the bound HTTP
// address from its stable "dsearchd: listening http=..." line.
func startDaemon(t *testing.T, bin string, args ...string) *dsearchdProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "http="); ok {
				addrCh <- strings.Fields(rest)[0]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()

	p := &dsearchdProc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	select {
	case p.addr = <-addrCh:
	case err := <-p.done:
		t.Fatalf("daemon exited before announcing its address: %v", err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not announce its address in 10s")
	}
	return p
}

// terminate sends SIGTERM and waits for a clean (exit 0) drain.
func (p *dsearchdProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
}

// TestThreeProcessTCPDrain is the full-scale deployment check: three
// real dsearchd processes form a 12-node cluster over loopback TCP via
// one seed address, serve queries from every shard, and a SIGTERM'd
// member finishes its in-flight query before exiting 0.
func TestThreeProcessTCPDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process boot is not part of the -short smoke")
	}
	bin := filepath.Join(t.TempDir(), "dsearchd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dsearchd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dsearchd: %v\n%s", err, out)
	}

	shared := []string{
		"-total", "12", "-nodes", "4",
		"-seed", "7", "-degree", "2", "-ttl", "3",
		"-keys", "64", "-replicas", "3",
		"-gossip-interval", "50", "-query-window", "150",
	}
	p0 := startDaemon(t, bin, append(shared, "-base", "0")...)
	defer p0.cmd.Process.Kill()
	p1 := startDaemon(t, bin, append(shared, "-base", "4", "-join", p0.addr)...)
	defer p1.cmd.Process.Kill()
	p2 := startDaemon(t, bin, append(shared, "-base", "8", "-join", p0.addr)...)
	defer p2.cmd.Process.Kill()

	ctx := context.Background()
	procs := []*dsearchdProc{p0, p1, p2}
	clients := make([]*searchclient.Client, 3)
	for i, p := range procs {
		clients[i] = searchclient.New(p.addr)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		full := true
		for _, c := range clients {
			info, err := c.Cluster(ctx)
			if err != nil || len(info.Members) != 3 {
				full = false
				break
			}
		}
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("3-process membership did not converge in 15s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond) // let transport address books settle

	// Every shard must answer queries, and cross-shard floods must land
	// hits somewhere.
	w := BuildWorld(7, 12, 2, 64, 3)
	plan := w.QueryPlan(36)
	hits := 0
	// neighborHit is a query that answered from one hop out: its hit is
	// pure reachability (the origin always floods all neighbors), so it
	// must keep hitting later — we replay it mid-drain to prove the
	// coalescing writers flushed rather than stranded the final frames.
	var neighborHit *searchclient.QueryRequest
	for i, q := range plan {
		origin := int(q.Origin)
		req := searchclient.QueryRequest{
			Key: uint64(q.Key), Origin: &origin, MaxHits: 1,
		}
		resp, err := clients[origin/4].Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.Found() {
			hits++
			if neighborHit == nil && resp.Hits[0].Hops == 1 {
				neighborHit = &req
			}
		}
	}
	if hits == 0 {
		t.Fatal("no hits across 36 cross-shard queries")
	}
	t.Logf("3-process cluster: %d/%d hits", hits, len(plan))

	// The batch plane works across real processes too: one slab per
	// member, same fabric, hits landing from remote shards.
	for i, c := range clients {
		var breqs []searchclient.QueryRequest
		for _, q := range plan[:24] {
			origin := int(q.Origin)
			if origin/4 != i {
				continue
			}
			breqs = append(breqs, searchclient.QueryRequest{
				Key: uint64(q.Key), Origin: &origin, MaxHits: 1,
			})
		}
		if len(breqs) == 0 {
			continue
		}
		bresp, err := c.QueryBatch(ctx, breqs)
		if err != nil {
			t.Fatalf("batch via member %d: %v", i, err)
		}
		if serr := bresp.BatchStatusError(); serr != nil {
			t.Fatalf("batch via member %d: per-item failures: %v", i, serr)
		}
	}

	// SIGTERM p0 with a full-window query in flight: the drain must let
	// it finish (HTTP 200) before the process exits 0 — and if we have a
	// guaranteed one-hop hit, it must still HIT, which means the
	// coalescing TCP writers flushed the query and hit frames on the way
	// down instead of stranding them in their buffers.
	drainReq := searchclient.QueryRequest{Key: uint64(plan[0].Key), TimeoutMillis: 500}
	mustHit := false
	if neighborHit != nil && *neighborHit.Origin/4 == 0 {
		drainReq = *neighborHit
		drainReq.TimeoutMillis = 500
		drainReq.MaxHits = 0 // hold the window open so SIGTERM lands mid-flight
		mustHit = true
	}
	inflight := make(chan error, 1)
	var drainResp *searchclient.QueryResponse
	go func() {
		var err error
		drainResp, err = clients[0].Query(ctx, drainReq)
		inflight <- err
	}()
	time.Sleep(100 * time.Millisecond) // past admission, inside the window

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p0.terminate(t) }()
	if err := <-inflight; err != nil {
		t.Errorf("in-flight query failed during SIGTERM drain: %v", err)
	} else if mustHit && !drainResp.Found() {
		t.Errorf("one-hop query lost its hit during SIGTERM drain: frames stranded in a coalescing writer?")
	}
	wg.Wait()

	// The surviving members keep serving their shards.
	for i, c := range clients[1:] {
		origin := (i+1)*4 + 1
		if _, err := c.Query(ctx, searchclient.QueryRequest{
			Key: uint64(plan[1].Key), Origin: &origin, MaxHits: 1,
		}); err != nil {
			t.Fatalf("survivor shard %d refused a query after peer drain: %v", i+1, err)
		}
	}
	p1.terminate(t)
	p2.terminate(t)
}
