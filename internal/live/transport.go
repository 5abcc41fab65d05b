// Package live runs the framework on real concurrent nodes instead of
// the discrete-event simulator: every node is a goroutine-driven actor
// with an inbox, and messages travel over a pluggable Transport. A
// process's own nodes share an in-process channel fabric, which hands
// every envelope for a node it does not host to TCP with gob encoding
// (cmd/dsearchd runs one such fabric per process).
//
// The protocol is the paper's Algo 5 adapted to a real network: queries
// flood with a TTL and duplicate suppression, hits reply directly to
// the origin (carrying the answering link's bandwidth class, as the
// Gnutella Ping-Pong protocol does), every query copy is acknowledged
// once the part of the flood behind it is exhausted (so the origin
// knows when a search is finished instead of waiting out a window),
// and neighbor updates carry core's Algo 4 over invitation, reply and
// eviction messages: each node takes the inviter's and the invitee's
// decisions (core.SymmetricUpdater, always-accept, one swap per
// reconfiguration) from its own ledger and list, and a link is made
// only on an accepted reply.
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
	"repro/internal/rng"
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
// 48 bytes: every node owns a 1024-slot inbox of these.
type Envelope struct {
	Type MsgType
	// TTL and Hops are the search depth and the distance this copy has
	// travelled (query, hit); an ack leaves them zero.
	TTL, Hops uint8
	// Seq numbers a query copy among the copies its sender's activation
	// record awaits an ack for; the ack echoes it (query, ack).
	Seq  uint8
	From topology.NodeID
	// To is the destination node. TCPTransport.Send stamps it, so a
	// process's one envelope listener can route a frame to the node it
	// is for; a hop inside the channel fabric leaves it zero.
	To topology.NodeID

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
// reads it with one atomic load and no lock. An envelope for an ID
// with no inbox goes to the remote transport, if one is set.
type ChanTransport struct {
	mu    sync.Mutex // serializes writers only
	boxes atomic.Pointer[map[topology.NodeID]chanDest]
	// remote carries envelopes for IDs hosted elsewhere; set once by
	// SetRemote before the first Send.
	remote Transport
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

// SetRemote makes r the destination of every envelope whose ID has no
// inbox here. It must be called before the first Send; without it such
// an envelope fails.
func (t *ChanTransport) SetRemote(r Transport) { t.remote = r }

// Unregister removes a node's inbox; pending messages are dropped.
func (t *ChanTransport) Unregister(id topology.NodeID) {
	t.mutate(func(m map[topology.NodeID]chanDest) { delete(m, id) })
}

// Send implements Transport. A full inbox drops the message (backpressure
// by loss, as UDP-era Gnutella did) rather than blocking the sender.
func (t *ChanTransport) Send(to topology.NodeID, env Envelope) error {
	d, ok := (*t.boxes.Load())[to]
	if !ok {
		if t.remote != nil {
			return t.remote.Send(to, env)
		}
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
// It carries only envelopes between processes: a process's own nodes
// reach each other over its ChanTransport, which hands this transport
// the IDs it does not host. Every process registers the envelope
// address each peer node is reached at; nodes that share an address
// (the shard of one peer process) share one pooled connection, so a
// process holds one connection per peer process, not per peer node.
// Send stamps the destination node into Envelope.To for the receiving
// process to route on. Each connection carries its own lock so a slow
// or dead peer never blocks sends to healthy ones.
//
// Dial failures are non-fatal: Send retries a bounded number of times
// with exponential backoff (a peer that is still booting becomes
// reachable mid-bootstrap instead of losing the message), and after
// the final failure the destination enters a cooldown during which
// sends fail fast — the lossy-network semantics the protocol already
// tolerates, without a dial storm against a dead peer.
//
// Writes coalesce: every connection owns a persistent gob encoder
// over a buffered writer, so one cascade fan-out burst becomes one
// syscall per peer process instead of one per message. Frames flush
// when the buffer reaches flushBytes, every flushInterval from a
// background flusher, and unconditionally on Flush and Close — a
// drained process never strands buffered frames. TCP_NODELAY is set
// explicitly on every dialed connection: the coalescing window is the
// transport's own (bounded, observable) batching policy, not the
// kernel's.
type TCPTransport struct {
	// maxDialAttempts bounds connection attempts per Send (default 4).
	maxDialAttempts int
	// dialBackoff is the base of the first retry delay; each attempt
	// doubles it and the actual sleep is jittered uniformly over
	// [base/2, base] so peers retrying the same dead destination never
	// synchronize into a dial storm (default 25ms).
	dialBackoff time.Duration
	// dialCooldown is how long a destination fails fast after
	// maxDialAttempts consecutive dial failures (default 250ms).
	dialCooldown time.Duration
	// flushBytes flushes a destination's write buffer inline once it
	// holds at least this many bytes (default 16KB); flushInterval is
	// the background flusher's coalescing window — the longest a frame
	// waits buffered before hitting the wire (default 1ms). The
	// settings are fixed by NewTCPTransport; only the package's tests
	// change them, before the first Send.
	flushBytes    int
	flushInterval time.Duration

	// mu guards dests, byAddr and every tcpDest's refs. It is never
	// held while waiting for a tcpDest's lock.
	mu sync.Mutex
	// dests maps a node to the destination its address names; byAddr
	// holds one destination per distinct address.
	dests  map[topology.NodeID]*tcpDest
	byAddr map[string]*tcpDest
	// closed is closed by Close; backoff sleeps and the background
	// flusher select on it so a draining process is never pinned by a
	// peer mid-retry.
	closed    chan struct{}
	closeOnce sync.Once
	// flusherOnce launches the background flusher on the first dialed
	// connection (a transport that never sends never ticks).
	flusherOnce sync.Once
	// jitterRNG draws backoff jitter under mu, seeded from the clock.
	jitterRNG *rng.Stream
}

// tcpDest is one peer address: its connection, encoder, write buffer
// and dial cooldown.
type tcpDest struct {
	addr string
	// refs counts the node IDs pointing here (under TCPTransport.mu);
	// the last one leaving retires the destination.
	refs int

	mu        sync.Mutex
	c         net.Conn
	bw        *bufio.Writer
	enc       *gob.Encoder
	downUntil time.Time
	// retired is set once no node ID points here any more: a Send that
	// looked the destination up before then fails instead of re-dialing.
	retired bool
}

// NewTCPTransport returns a transport with no known peers and default
// retry and coalescing parameters.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		maxDialAttempts: 4,
		dialBackoff:     25 * time.Millisecond,
		dialCooldown:    250 * time.Millisecond,
		flushBytes:      16 << 10,
		flushInterval:   time.Millisecond,
		dests:           make(map[topology.NodeID]*tcpDest),
		byAddr:          make(map[string]*tcpDest),
		closed:          make(chan struct{}),
		jitterRNG:       rng.New(uint64(time.Now().UnixNano())),
	}
}

// jitter maps backoff to a uniform duration in [backoff/2, backoff].
func (t *TCPTransport) jitter(backoff time.Duration) time.Duration {
	t.mu.Lock()
	u := t.jitterRNG.Float64()
	t.mu.Unlock()
	return backoff/2 + time.Duration(u*float64(backoff/2))
}

// SetAddr points node id at a peer's envelope address. Re-registering
// the same address is a no-op (gossip refreshes are idempotent); ids
// given one address share its connection, and a destination no id
// points to any more is closed.
func (t *TCPTransport) SetAddr(id topology.NodeID, addr string) {
	t.mu.Lock()
	old := t.dests[id]
	if old != nil && old.addr == addr {
		t.mu.Unlock()
		return
	}
	d := t.byAddr[addr]
	if d == nil {
		d = &tcpDest{addr: addr}
		t.byAddr[addr] = d
	}
	d.refs++
	t.dests[id] = d
	if old != nil {
		old.refs--
	}
	retire := old != nil && old.refs == 0
	if retire {
		delete(t.byAddr, old.addr)
	}
	t.mu.Unlock()

	if retire {
		old.mu.Lock()
		old.retired = true
		old.dropConnLocked()
		old.mu.Unlock()
	}
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

// Send implements Transport. It stamps to into env.To.
func (t *TCPTransport) Send(to topology.NodeID, env Envelope) error {
	t.mu.Lock()
	d, ok := t.dests[to]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("live: no address for node %d", to)
	}
	env.To = to

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c == nil {
		if d.retired {
			return fmt.Errorf("live: address of node %d changed mid-send", to)
		}
		if until := d.downUntil; !until.IsZero() && time.Now().Before(until) {
			return fmt.Errorf("live: node %d unreachable (cooldown)", to)
		}
		backoff := t.dialBackoff
		var err error
		for i := 0; i < t.maxDialAttempts; i++ {
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
				// delay window on top of flushInterval).
				if tc, ok := c.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(true)
				}
				d.c = c
				d.bw = bufio.NewWriterSize(c, t.flushBytes)
				d.enc = gob.NewEncoder(d.bw)
				d.downUntil = time.Time{}
				t.flusherOnce.Do(func() { go t.flushLoop() })
				break
			}
		}
		if d.c == nil {
			d.downUntil = time.Now().Add(t.dialCooldown)
			return fmt.Errorf("live: dial node %d: %w", to, err)
		}
	}
	if err := d.enc.Encode(env); err != nil {
		d.dropConnLocked()
		return fmt.Errorf("live: send to node %d: %w", to, err)
	}
	// Size-triggered inline flush; smaller bursts wait (at most
	// flushInterval) for the background flusher, coalescing a fan-out
	// burst into one write.
	if d.bw.Buffered() >= t.flushBytes {
		d.flushLocked()
		if d.c == nil {
			return fmt.Errorf("live: flush to node %d failed", to)
		}
	}
	return nil
}

// flushLoop is the background coalescing flusher: every flushInterval
// it pushes each destination's buffered frames to the wire. It exits
// when the transport closes (Close flushes one final time itself).
func (t *TCPTransport) flushLoop() {
	tick := time.NewTicker(t.flushInterval)
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

// eachDest runs f on every destination under its lock.
func (t *TCPTransport) eachDest(f func(*tcpDest)) {
	t.mu.Lock()
	dests := make([]*tcpDest, 0, len(t.byAddr))
	for _, d := range t.byAddr {
		dests = append(dests, d)
	}
	t.mu.Unlock()
	for _, d := range dests {
		d.mu.Lock()
		f(d)
		d.mu.Unlock()
	}
}

// Flush pushes every destination's buffered frames to the wire now.
func (t *TCPTransport) Flush() { t.eachDest((*tcpDest).flushLocked) }

// Close flushes and shuts all pooled connections and unblocks any Send
// waiting in dial backoff; subsequent Sends fail fast. The flush-first
// order is the no-stranded-frames guarantee a draining process relies
// on: everything buffered before Close reaches the wire.
func (t *TCPTransport) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	t.eachDest(func(d *tcpDest) {
		d.flushLocked()
		d.dropConnLocked()
	})
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
