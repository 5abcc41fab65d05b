// Package live runs the framework on real concurrent nodes instead of
// the discrete-event simulator: every node is a goroutine-driven actor
// with an inbox, and messages travel over a pluggable Transport — an
// in-process channel fabric for tests and single-binary demos, or
// TCP with gob encoding for multi-process deployments (cmd/dsearch).
//
// The protocol is the paper's Algo 5 adapted to a real network: queries
// flood with a TTL and duplicate suppression, hits reply directly to
// the origin (carrying the answering link's bandwidth class, as the
// Gnutella Ping-Pong protocol does), every query copy is acknowledged
// once the part of the flood behind it is exhausted (so the origin
// knows when a search is finished instead of waiting out a window),
// and neighbor updates use invitation/eviction messages with the
// always-accept policy.
package live

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	MsgQuery MsgType = iota
	MsgHit
	MsgInvite
	MsgInviteReply
	MsgEvict
	// MsgAck answers one MsgQuery copy: the flood behind that copy is
	// exhausted. It is appended last so the older types keep their wire
	// values.
	MsgAck
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgQuery:
		return "query"
	case MsgHit:
		return "hit"
	case MsgInvite:
		return "invite"
	case MsgInviteReply:
		return "invite-reply"
	case MsgEvict:
		return "evict"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Envelope is the wire message. All fields are exported and
// gob-encodable; unused fields stay zero. The field order packs it into
// 40 bytes: every node owns a 1024-slot inbox of these.
type Envelope struct {
	Type MsgType
	// TTL and Hops are the search depth and the distance this copy has
	// travelled (query, hit); an ack leaves them zero.
	TTL, Hops uint8
	// Seq numbers a query copy among the copies its sender's activation
	// record awaits an ack for; the ack echoes it (query, ack).
	Seq  uint8
	From topology.NodeID

	// Query / Hit / Ack fields.
	QueryID core.QueryID
	Key     core.Key
	Origin  topology.NodeID
	// Slot is the sender's activation record, echoed by the ack so the
	// sender finds it without a lookup (query, ack).
	Slot uint16
	// Served is the number of hits sent to the origin from the part of
	// the flood this ack closes (ack).
	Served uint32
	// Class is the answering node's bandwidth class on hits.
	Class netsim.BandwidthClass

	// InviteReply field.
	Accept bool

	// Lost reports that a copy in the part of the flood this ack closes
	// could not be handed to the transport: nodes behind it were not
	// searched (ack).
	Lost bool
}

// Transport delivers envelopes between nodes. Implementations must be
// safe for concurrent use.
type Transport interface {
	// Send delivers env to node to. Delivery is asynchronous;
	// implementations may drop messages to unknown or stopped nodes
	// and report the failure.
	Send(to topology.NodeID, env Envelope) error
}

// ChanTransport is an in-process fabric: one buffered channel per node.
// The routing table is copy-on-write — registrations (boot-time, rare)
// publish a fresh map; Send (the flood hot path, millions per run)
// reads it with one atomic load and no lock.
type ChanTransport struct {
	mu    sync.Mutex // serializes writers only
	boxes atomic.Pointer[map[topology.NodeID]chanDest]
}

// chanDest is one routing entry: the inbox, and the node behind it when
// one was attached (a bare Register has none).
type chanDest struct {
	box  chan Envelope
	node *Node
}

// NewChanTransport returns an empty fabric.
func NewChanTransport() *ChanTransport {
	t := &ChanTransport{}
	m := map[topology.NodeID]chanDest{}
	t.boxes.Store(&m)
	return t
}

// mutate publishes a modified copy of the routing table under t.mu.
func (t *ChanTransport) mutate(f func(map[topology.NodeID]chanDest)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.boxes.Load()
	m := make(map[topology.NodeID]chanDest, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	f(m)
	t.boxes.Store(&m)
}

// Register creates (or returns) the inbox for node id.
func (t *ChanTransport) Register(id topology.NodeID) chan Envelope {
	var box chan Envelope
	t.mutate(func(m map[topology.NodeID]chanDest) {
		if _, ok := m[id]; !ok {
			m[id] = chanDest{box: make(chan Envelope, inboxCap)}
		}
		box = m[id].box
	})
	return box
}

// Attach wires a node's inbox into the fabric, replacing any channel
// previously registered for its ID.
func (t *ChanTransport) Attach(n *Node) {
	t.mutate(func(m map[topology.NodeID]chanDest) { m[n.ID()] = chanDest{n.Inbox(), n} })
}

// Unregister removes a node's inbox; pending messages are dropped.
func (t *ChanTransport) Unregister(id topology.NodeID) {
	t.mutate(func(m map[topology.NodeID]chanDest) { delete(m, id) })
}

// Send implements Transport. A full inbox drops the message (backpressure
// by loss, as UDP-era Gnutella did) rather than blocking the sender.
func (t *ChanTransport) Send(to topology.NodeID, env Envelope) error {
	d, ok := (*t.boxes.Load())[to]
	if !ok {
		return fmt.Errorf("live: no inbox for node %d", to)
	}
	// Half of a flood's messages are acks, and an ack to an idle node
	// costs a goroutine wake-up to clear one bit: an idle node gets its
	// acks and hits handled by the sender instead.
	if (env.Type == MsgAck || env.Type == MsgHit) && d.node != nil && d.node.deliverNow(env) {
		return nil
	}
	select {
	case d.box <- env:
		return nil
	default:
		return fmt.Errorf("live: inbox of node %d is full", to)
	}
}

// TCPTransport sends envelopes over TCP connections with gob encoding.
// Every process registers its peers' listen addresses; connections are
// pooled per destination, and each destination carries its own lock so
// a slow or dead peer never blocks sends to healthy ones.
//
// Dial failures are non-fatal: Send retries a bounded number of times
// with exponential backoff (a peer that is still booting becomes
// reachable mid-bootstrap instead of losing the message), and after
// the final failure the destination enters a cooldown during which
// sends fail fast — the lossy-network semantics the protocol already
// tolerates, without a dial storm against a dead peer.
//
// Writes coalesce: every destination owns a persistent gob encoder
// over a buffered writer, so one cascade fan-out burst becomes one
// syscall per destination instead of one per message. Frames flush
// when the buffer reaches FlushBytes, every FlushInterval from a
// background flusher, and unconditionally on Flush and Close — a
// drained process never strands buffered frames. TCP_NODELAY is set
// explicitly on every dialed connection: the coalescing window is the
// transport's own (bounded, observable) batching policy, not the
// kernel's.
type TCPTransport struct {
	// MaxDialAttempts bounds connection attempts per Send (default 4).
	MaxDialAttempts int
	// DialBackoff is the base of the first retry delay; each attempt
	// doubles it and the actual sleep is jittered uniformly over
	// [base/2, base] so peers retrying the same dead destination never
	// synchronize into a dial storm (default 25ms).
	DialBackoff time.Duration
	// DialCooldown is how long a destination fails fast after
	// MaxDialAttempts consecutive dial failures (default 250ms).
	DialCooldown time.Duration
	// FlushBytes flushes a destination's write buffer inline once it
	// holds at least this many bytes (default 16KB); FlushInterval is
	// the background flusher's coalescing window — the longest a frame
	// waits buffered before hitting the wire (default 1ms). Both are
	// read at first Send; set them before using the transport.
	FlushBytes    int
	FlushInterval time.Duration

	mu    sync.Mutex
	dests map[topology.NodeID]*tcpDest
	// closed is closed by Close; backoff sleeps and the background
	// flusher select on it so a draining process is never pinned by a
	// peer mid-retry.
	closed    chan struct{}
	closeOnce sync.Once
	// flusherOnce launches the background flusher on the first dialed
	// connection (a transport that never sends never ticks).
	flusherOnce sync.Once
	// jitterState seeds the backoff jitter stream (splitmix64 steps
	// under mu; no dependency on the deterministic rng package — dial
	// timing is wall-clock territory).
	jitterState uint64
}

type tcpDest struct {
	mu        sync.Mutex
	addr      string
	c         net.Conn
	bw        *bufio.Writer
	enc       *gob.Encoder
	downUntil time.Time
}

// NewTCPTransport returns a transport with no known peers and default
// retry and coalescing parameters.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		MaxDialAttempts: 4,
		DialBackoff:     25 * time.Millisecond,
		DialCooldown:    250 * time.Millisecond,
		FlushBytes:      16 << 10,
		FlushInterval:   time.Millisecond,
		dests:           make(map[topology.NodeID]*tcpDest),
		closed:          make(chan struct{}),
		jitterState:     uint64(time.Now().UnixNano()),
	}
}

// jitter maps backoff to a uniform duration in [backoff/2, backoff].
func (t *TCPTransport) jitter(backoff time.Duration) time.Duration {
	t.mu.Lock()
	t.jitterState += 0x9e3779b97f4a7c15
	z := t.jitterState
	t.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return backoff/2 + time.Duration(u*float64(backoff/2))
}

// SetAddr registers the listen address of a peer. Re-registering the
// same address is a no-op (gossip refreshes are idempotent); a changed
// address closes the pooled connection so the next Send re-dials.
func (t *TCPTransport) SetAddr(id topology.NodeID, addr string) {
	t.mu.Lock()
	d, ok := t.dests[id]
	if !ok {
		t.dests[id] = &tcpDest{addr: addr}
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.addr == addr {
		return
	}
	d.addr = addr
	d.downUntil = time.Time{}
	d.dropConnLocked()
}

// dropConnLocked abandons the pooled connection (and any frames still
// buffered for it — they are lost, like any message to a dead peer).
// Callers hold d.mu.
func (d *tcpDest) dropConnLocked() {
	if d.c != nil {
		d.c.Close()
		d.c, d.bw, d.enc = nil, nil, nil
	}
}

// flushLocked pushes buffered frames to the wire; a write failure
// drops the connection so the next Send re-dials. Callers hold d.mu.
func (d *tcpDest) flushLocked() {
	if d.bw == nil || d.bw.Buffered() == 0 {
		return
	}
	if err := d.bw.Flush(); err != nil {
		d.dropConnLocked()
	}
}

// Send implements Transport.
func (t *TCPTransport) Send(to topology.NodeID, env Envelope) error {
	t.mu.Lock()
	d, ok := t.dests[to]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("live: no address for node %d", to)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c == nil {
		if until := d.downUntil; !until.IsZero() && time.Now().Before(until) {
			return fmt.Errorf("live: node %d unreachable (cooldown)", to)
		}
		attempts := t.MaxDialAttempts
		if attempts < 1 {
			attempts = 1
		}
		backoff := t.DialBackoff
		var err error
		for i := 0; i < attempts; i++ {
			if i > 0 {
				// Jittered, interruptible backoff: Close unblocks the sleep
				// immediately so a draining process is not held hostage by a
				// peer in retry.
				timer := time.NewTimer(t.jitter(backoff))
				select {
				case <-t.closed:
					timer.Stop()
					return fmt.Errorf("live: transport closed while dialing node %d: %w", to, err)
				case <-timer.C:
				}
				backoff *= 2
			}
			select {
			case <-t.closed:
				return fmt.Errorf("live: transport closed while dialing node %d", to)
			default:
			}
			var c net.Conn
			if c, err = net.Dial("tcp", d.addr); err == nil {
				// The coalescing buffer is the batching policy; the kernel
				// must not add its own (Nagle would stack a second, opaque
				// delay window on top of FlushInterval).
				if tc, ok := c.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(true)
				}
				bufBytes := t.FlushBytes
				if bufBytes < 1 {
					bufBytes = 1
				}
				d.c = c
				d.bw = bufio.NewWriterSize(c, bufBytes)
				d.enc = gob.NewEncoder(d.bw)
				d.downUntil = time.Time{}
				t.flusherOnce.Do(func() { go t.flushLoop() })
				break
			}
		}
		if d.c == nil {
			d.downUntil = time.Now().Add(t.DialCooldown)
			return fmt.Errorf("live: dial node %d: %w", to, err)
		}
	}
	if err := d.enc.Encode(env); err != nil {
		d.dropConnLocked()
		return fmt.Errorf("live: send to node %d: %w", to, err)
	}
	// Size-triggered inline flush; smaller bursts wait (at most
	// FlushInterval) for the background flusher, coalescing a fan-out
	// burst into one write.
	if d.bw.Buffered() >= t.FlushBytes {
		d.flushLocked()
		if d.c == nil {
			return fmt.Errorf("live: flush to node %d failed", to)
		}
	}
	return nil
}

// flushLoop is the background coalescing flusher: every FlushInterval
// it pushes each destination's buffered frames to the wire. It exits
// when the transport closes (Close flushes one final time itself).
func (t *TCPTransport) flushLoop() {
	interval := t.FlushInterval
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-tick.C:
			t.Flush()
		}
	}
}

// Flush pushes every destination's buffered frames to the wire now.
func (t *TCPTransport) Flush() {
	t.mu.Lock()
	dests := make([]*tcpDest, 0, len(t.dests))
	for _, d := range t.dests {
		dests = append(dests, d)
	}
	t.mu.Unlock()
	for _, d := range dests {
		d.mu.Lock()
		d.flushLocked()
		d.mu.Unlock()
	}
}

// Close flushes and shuts all pooled connections and unblocks any Send
// waiting in dial backoff; subsequent Sends fail fast. The flush-first
// order is the no-stranded-frames guarantee a draining process relies
// on: everything buffered before Close reaches the wire.
func (t *TCPTransport) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.dests {
		d.mu.Lock()
		d.flushLocked()
		d.dropConnLocked()
		d.mu.Unlock()
	}
}

// decodeFrames reads the gob stream a TCPTransport writes and hands
// each envelope to deliver, until the stream ends or stops making
// sense; it returns the error that ended it. One envelope is reused for
// the whole stream: gob decodes into the same frame every iteration and
// deliver receives a value copy, so the steady-state receive path
// allocates nothing per hop.
func decodeFrames(r io.Reader, deliver func(Envelope)) error {
	dec := gob.NewDecoder(bufio.NewReader(r))
	env := new(Envelope)
	for {
		*env = Envelope{}
		if err := dec.Decode(env); err != nil {
			return err
		}
		deliver(*env)
	}
}

// Listen starts a TCP listener that decodes envelopes into deliver.
// It returns the bound address and a stop function.
func Listen(addr string, deliver func(Envelope)) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		done  = make(chan struct{})
	)
	track := func(c net.Conn) bool {
		mu.Lock()
		defer mu.Unlock()
		select {
		case <-done:
			return false
		default:
		}
		conns[c] = struct{}{}
		return true
	}
	untrack := func(c net.Conn) {
		mu.Lock()
		delete(conns, c)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Transient Accept errors (EMFILE, aborted handshakes) back off
		// geometrically instead of spinning hot; any success resets.
		backoff := time.Duration(0)
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-done:
					return
				default:
				}
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff < 100*time.Millisecond {
					backoff *= 2
				}
				time.Sleep(backoff)
				continue
			}
			backoff = 0
			if !track(conn) {
				conn.Close()
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer untrack(c)
				defer c.Close()
				_ = decodeFrames(c, deliver)
			}(conn)
		}
	}()
	stop := func() {
		mu.Lock()
		close(done)
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		ln.Close()
		wg.Wait()
	}
	return ln.Addr().String(), stop, nil
}
