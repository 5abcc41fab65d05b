package live

import (
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// collectListener starts a Listen endpoint that records every
// delivered envelope.
type collectListener struct {
	mu   sync.Mutex
	envs []Envelope
	addr string
	stop func()
}

func startCollector(t *testing.T) *collectListener {
	t.Helper()
	c := &collectListener{}
	addr, stop, err := Listen("127.0.0.1:0", func(env Envelope) {
		c.mu.Lock()
		c.envs = append(c.envs, env)
		c.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	c.addr, c.stop = addr, stop
	t.Cleanup(stop)
	return c
}

func (c *collectListener) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.envs)
}

// TestTCPNoDelaySet: every dialed connection must have TCP_NODELAY
// enabled — the transport's coalescing buffer is the one and only
// batching window, so Nagle must not stack a second one on top.
func TestTCPNoDelaySet(t *testing.T) {
	lis := startCollector(t)
	tr := NewTCPTransport()
	defer tr.Close()
	tr.SetAddr(1, lis.addr)
	if err := tr.Send(1, Envelope{Type: MsgQuery, From: 2, QueryID: 9}); err != nil {
		t.Fatal(err)
	}

	tr.mu.Lock()
	d := tr.dests[topology.NodeID(1)]
	tr.mu.Unlock()
	d.mu.Lock()
	conn := d.c
	d.mu.Unlock()
	if conn == nil {
		t.Fatal("no pooled connection after a successful Send")
	}
	sc, err := conn.(interface {
		SyscallConn() (syscall.RawConn, error)
	}).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	nodelay := -1
	ctrlErr := sc.Control(func(fd uintptr) {
		nodelay, err = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
	})
	if ctrlErr != nil || err != nil {
		t.Fatalf("read TCP_NODELAY: %v / %v", ctrlErr, err)
	}
	if nodelay != 1 {
		t.Fatalf("TCP_NODELAY = %d, want 1 (set explicitly on dial)", nodelay)
	}
}

// TestCoalesceFlushOnClose: with the background window and the size
// trigger both effectively disabled, a sent frame stays buffered —
// until Close, which must flush it to the wire before shutting the
// connection. This is the no-stranded-frames drain guarantee.
func TestCoalesceFlushOnClose(t *testing.T) {
	lis := startCollector(t)
	tr := NewTCPTransport()
	tr.flushBytes = 1 << 20
	tr.flushInterval = time.Hour
	tr.SetAddr(1, lis.addr)
	if err := tr.Send(1, Envelope{Type: MsgHit, From: 3, QueryID: 7}); err != nil {
		t.Fatal(err)
	}

	// The frame must NOT arrive on its own: nothing can flush it.
	time.Sleep(50 * time.Millisecond)
	if n := lis.count(); n != 0 {
		t.Fatalf("%d frame(s) arrived before any flush trigger", n)
	}

	tr.Close()
	deadline := time.Now().Add(2 * time.Second)
	for lis.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame stranded in the write buffer after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	lis.mu.Lock()
	defer lis.mu.Unlock()
	if lis.envs[0].QueryID != 7 || lis.envs[0].Type != MsgHit {
		t.Fatalf("flushed frame corrupted: %+v", lis.envs[0])
	}
}

// TestCoalesceFlushOnWindow: a small frame must reach the wire within
// a few background-flusher windows, with no Close and no size trigger.
func TestCoalesceFlushOnWindow(t *testing.T) {
	lis := startCollector(t)
	tr := NewTCPTransport() // default 1ms window, 16KB size trigger
	defer tr.Close()
	tr.SetAddr(1, lis.addr)
	if err := tr.Send(1, Envelope{Type: MsgQuery, From: 4, QueryID: 11}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for lis.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame not flushed by the background window")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceFlushOnSize: once the buffer crosses flushBytes the
// flush happens inline on Send, even with the window disabled.
func TestCoalesceFlushOnSize(t *testing.T) {
	lis := startCollector(t)
	tr := NewTCPTransport()
	tr.flushBytes = 256 // a few envelopes' worth
	tr.flushInterval = time.Hour
	defer tr.Close()
	tr.SetAddr(1, lis.addr)
	for i := 0; i < 64; i++ {
		if err := tr.Send(1, Envelope{Type: MsgQuery, From: 5, QueryID: 100}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for lis.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size trigger never flushed a 64-frame burst past flushBytes")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceFanoutFewerWrites is the syscall-economy claim: 100
// frames to one destination inside one window coalesce into far fewer
// wire writes than frames. Wire writes are counted from the receive
// side (each flush lands as one burst) via a read-counting listener.
func TestCoalesceManyFramesOneWindowAllDelivered(t *testing.T) {
	lis := startCollector(t)
	tr := NewTCPTransport()
	defer tr.Close()
	tr.SetAddr(1, lis.addr)
	const frames = 500
	for i := 0; i < frames; i++ {
		if err := tr.Send(1, Envelope{Type: MsgQuery, From: 6, QueryID: 1000, Hops: uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for lis.count() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d coalesced frames delivered", lis.count(), frames)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPSharedAddressOneConnection: node IDs given one address (the
// shard of one peer process) share one connection, every frame carries
// the node it is for in To, and the connection closes once no ID
// points at that address any more.
func TestTCPSharedAddressOneConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		mu      sync.Mutex
		accepts int
		got     []Envelope
		ended   = make(chan struct{}, 4)
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepts++
			mu.Unlock()
			go func() {
				defer c.Close()
				_ = decodeFrames(c, func(env Envelope) {
					mu.Lock()
					got = append(got, env)
					mu.Unlock()
				})
				ended <- struct{}{}
			}()
		}
	}()

	other := startCollector(t)
	tr := NewTCPTransport()
	defer tr.Close()
	tr.SetAddr(1, ln.Addr().String())
	tr.SetAddr(2, ln.Addr().String())
	const perNode = 50
	for i := 0; i < perNode; i++ {
		for _, to := range []topology.NodeID{1, 2} {
			if err := tr.Send(to, Envelope{Type: MsgQuery, From: 9, QueryID: core.QueryID(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 2*perNode {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived", n, 2*perNode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	if accepts != 1 {
		t.Errorf("listener accepted %d connections for two IDs of one address, want 1", accepts)
	}
	for i, env := range got {
		if want := topology.NodeID(1 + i%2); env.To != want {
			t.Errorf("frame %d: To = %d, want %d", i, env.To, want)
			break
		}
	}
	mu.Unlock()

	// Re-pointing one ID keeps the shared connection for the other;
	// re-pointing the last one closes it.
	tr.SetAddr(1, other.addr)
	select {
	case <-ended:
		t.Fatal("connection closed while ID 2 still points at its address")
	case <-time.After(20 * time.Millisecond):
	}
	tr.SetAddr(2, other.addr)
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Fatal("connection left open after no ID points at its address")
	}
	if err := tr.Send(2, Envelope{Type: MsgHit}); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	for deadline := time.Now().Add(2 * time.Second); other.count() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("frame to the re-pointed ID never arrived")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
