// Package searchclient is the thin HTTP/JSON client for a running
// dsearchd cluster daemon — the public companion to pkg/search: where
// search is the in-process engine API, searchclient talks to the
// long-running service (cmd/dsearchd) that owns engine lifecycle,
// membership and serving.
//
// The types in this package are the wire contract — the daemon
// marshals exactly these structs, so any other consumer (curl, a
// dashboard) can rely on the same JSON shapes.
//
// The client is resilient by default: transient failures (connection
// errors, HTTP 503/429) retry a bounded number of times with jittered
// exponential backoff, honoring both the request context's deadline
// and any Retry-After the daemon sends, and a small circuit breaker
// fails fast once an endpoint has been unreachable long enough that
// retrying every caller is just load (any HTTP response, even an
// error, keeps the circuit closed). Non-2xx responses surface as
// *Error;
// Error.Temporary distinguishes "back off and retry" (a draining or
// paused daemon) from hard failures.
//
//	c := searchclient.New("127.0.0.1:7080")
//	resp, err := c.Query(ctx, searchclient.QueryRequest{Key: 42})
//	if err == nil && resp.Found() { ... }
package searchclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Client talks to one dsearchd process. Methods are safe for
// concurrent use (the underlying http.Client is; the retry and breaker
// state carry their own locks).
type Client struct {
	base string
	hc   *http.Client

	// maxRetries is how many times a failed attempt is retried (so a
	// call makes at most maxRetries+1 attempts); retryBase is the first
	// backoff, doubled per retry and jittered to [x/2, x].
	maxRetries int
	retryBase  time.Duration

	br *breaker

	// jitterRNG draws backoff jitter under jmu, seeded from the clock.
	jmu       sync.Mutex
	jitterRNG *rng.Stream
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client (custom timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry overrides the retry budget: maxRetries re-attempts after
// the first failure, starting at base backoff. WithRetry(0, 0)
// disables retrying entirely.
func WithRetry(maxRetries int, base time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = maxRetries
		c.retryBase = base
	}
}

// defaultTransport returns the client's tuned connection pool. The
// stdlib default keeps only 2 idle connections per host — a saturating
// caller (many goroutines sharing one Client) would churn through fresh
// TCP handshakes for every burst. Keep-alive
// reuse across sequential calls is part of the client's contract
// (asserted by test).
func defaultTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 128
	tr.MaxIdleConnsPerHost = 32
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// New returns a client for the daemon at addr ("host:port" or a full
// "http://..." base URL).
func New(addr string, opts ...Option) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:       strings.TrimSuffix(base, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport()},
		maxRetries: 3,
		retryBase:  25 * time.Millisecond,
		br:         newBreaker(8, 500*time.Millisecond),
		jitterRNG:  rng.New(uint64(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// QueryRequest is the body of POST /v1/query. Zero-valued fields
// defer to the daemon's configuration.
type QueryRequest struct {
	// Key is the content item searched for.
	Key uint64 `json:"key"`
	// TTL overrides the daemon's search depth when positive; it may
	// not exceed 255, the deepest search a message can carry.
	TTL int `json:"ttl,omitempty"`
	// Origin pins the originating node ID; nil lets the daemon pick a
	// local node round-robin. The node must be hosted by the daemon
	// receiving the request. If the pinned node is crashed, the daemon
	// reroutes to a live local node and marks the response Degraded.
	Origin *int `json:"origin,omitempty"`
	// TimeoutMillis bounds the hit-collection window; 0 uses the
	// daemon's default window. A search normally ends well inside it,
	// when its flood has terminated; a response that ran into it is
	// Degraded ("deadline").
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// MaxHits ends collection early after that many hits (1 turns the
	// query into an existence probe that returns at its first hit);
	// 0 collects every hit of the flood.
	MaxHits int `json:"max_hits,omitempty"`
}

// Hit is one positive answer of a query.
type Hit struct {
	// Holder is the answering node; Hops the forward distance the
	// query traveled; Class the answering link's advertised bandwidth
	// class ("56K", "cable", "LAN").
	Holder int    `json:"holder"`
	Hops   int    `json:"hops"`
	Class  string `json:"class"`
}

// QueryResponse is the body answering POST /v1/query.
type QueryResponse struct {
	// Origin is the node that originated the search.
	Origin int `json:"origin"`
	// Hits lists the collected answers in arrival order.
	Hits []Hit `json:"hits"`
	// ElapsedMillis is the server-side collection time.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// Degraded marks a response the daemon knows may be incomplete:
	// the search ended on its window or its deadline budget instead of
	// on the flood's termination, part of the flood could not be sent,
	// the pinned origin was crashed and the query was rerouted, the
	// origin could not fan out at all, or the failure detector currently
	// suspects cluster members. The hits are still valid — there may
	// just be fewer than a healthy cluster would have found. A response
	// that is not Degraded is exact: it lists every holder within TTL
	// hops (up to MaxHits), and an empty one means there is none.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReasons lists why, when Degraded ("deadline", "overload",
	// "origin-crashed", "no-fanout", "suspect-members",
	// "crashed-nodes").
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
}

// Found reports whether the query produced at least one hit.
func (r *QueryResponse) Found() bool { return len(r.Hits) > 0 }

// Degradation reasons carried in QueryResponse.DegradedReasons.
const (
	// ReasonDeadline: collection ended on the query window, not because
	// the flood was known to be finished — a message of the search was
	// lost, or the window ran out first.
	ReasonDeadline = "deadline"
	// ReasonOverload: the flood finished, but some node could not hand
	// a copy of the query on (a full inbox, a dead peer), so the nodes
	// behind that copy were not searched.
	ReasonOverload = "overload"
	// ReasonOriginCrashed: the pinned origin was crashed; the query ran
	// from a substitute node.
	ReasonOriginCrashed = "origin-crashed"
	// ReasonNoFanout: the origin could not forward to any neighbor and
	// found nothing locally.
	ReasonNoFanout = "no-fanout"
	// ReasonSuspects: the failure detector currently suspects cluster
	// members, so parts of the overlay may not have been searched.
	ReasonSuspects = "suspect-members"
	// ReasonCrashedNodes: the answering process hosts crashed nodes.
	ReasonCrashedNodes = "crashed-nodes"
)

// MemberInfo describes one cluster member in GET /v1/cluster.
type MemberInfo struct {
	Name   string `json:"name"`
	HTTP   string `json:"http"`
	BaseID int    `json:"base_id"`
	Nodes  int    `json:"nodes"`
	// Status is the answering member's failure-detector verdict on
	// this member: "alive", "suspect" or "dead".
	Status string `json:"status,omitempty"`
}

// NodeInfo describes one locally hosted node.
type NodeInfo struct {
	ID     int `json:"id"`
	Degree int `json:"degree"`
	// Crashed marks a node currently fault-injected down.
	Crashed bool `json:"crashed,omitempty"`
}

// ClusterInfo is the body of GET /v1/cluster.
type ClusterInfo struct {
	// Self names the answering member; Epoch is its membership-view
	// version (monotone per process — it bumps on every view change).
	Self  string `json:"self"`
	Epoch uint64 `json:"epoch"`
	// State is the lifecycle state: "starting", "ready", "paused",
	// "draining" or "stopped".
	State string `json:"state"`
	// Members is the full membership view, sorted by name.
	Members []MemberInfo `json:"members"`
	// Suspects lists members the answering process currently suspects
	// or has evicted, sorted.
	Suspects []string `json:"suspects,omitempty"`
	// LocalNodes lists the answering member's nodes with their current
	// neighbor degrees.
	LocalNodes []NodeInfo `json:"local_nodes"`
}

// Stats is the body of GET /v1/stats: counter name to value.
type Stats map[string]uint64

// Error is a non-2xx daemon response.
type Error struct {
	// Status is the HTTP status code; Message the daemon's error text.
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("searchclient: %d %s", e.Status, e.Message)
}

// Temporary reports whether the failure is worth retrying: the daemon
// exists but is not admitting right now (503 while paused, draining or
// booting; 429 under shed). Hard client errors (4xx) are not.
func (e *Error) Temporary() bool {
	return e.Status == http.StatusServiceUnavailable ||
		e.Status == http.StatusTooManyRequests
}

// ErrCircuitOpen is returned (wrapped) while the client's circuit
// breaker is open: recent attempts all failed and the cooldown has not
// elapsed, so the call failed fast without touching the network.
var ErrCircuitOpen = errors.New("searchclient: circuit open")

// Query runs one search through the daemon.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	var resp QueryResponse
	if err := c.post(ctx, "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Cluster fetches the membership view.
func (c *Client) Cluster(ctx context.Context) (*ClusterInfo, error) {
	var info ClusterInfo
	if err := c.get(ctx, "/v1/cluster", &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Stats fetches the counter snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	if err := c.get(ctx, "/v1/stats", &s); err != nil {
		return nil, err
	}
	return s, nil
}

// Pause stops query admission (in-flight queries finish; new ones are
// rejected until Resume).
func (c *Client) Pause(ctx context.Context) error {
	return c.post(ctx, "/v1/control/pause", nil, nil)
}

// Resume re-opens query admission after Pause.
func (c *Client) Resume(ctx context.Context) error {
	return c.post(ctx, "/v1/control/resume", nil, nil)
}

// Reconfig triggers one Algo 5 neighborhood reconfiguration on every
// node the daemon hosts.
func (c *Client) Reconfig(ctx context.Context) error {
	return c.post(ctx, "/v1/control/reconfig", nil, nil)
}

// Crash fault-injects one locally hosted node down: the daemon blocks
// its traffic and routes around it until Restart.
func (c *Client) Crash(ctx context.Context, node int) error {
	return c.post(ctx, "/v1/control/crash", map[string]int{"node": node}, nil)
}

// Restart lifts a Crash.
func (c *Client) Restart(ctx context.Context, node int) error {
	return c.post(ctx, "/v1/control/restart", map[string]int{"node": node}, nil)
}

// Ready reports nil when the daemon admits queries (GET /v1/readyz).
func (c *Client) Ready(ctx context.Context) error {
	return c.get(ctx, "/v1/readyz", nil)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	var data []byte
	if body != nil {
		// Pooled encode buffer: do() only reads data and returns before
		// the buffer goes back to the pool.
		buf := readBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer readBufPool.Put(buf)
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			return err
		}
		data = buf.Bytes()
	}
	return c.do(ctx, http.MethodPost, path, data, out)
}

// errBody is the daemon's error envelope: {"error": "..."}.
type errBody struct {
	Error string `json:"error"`
}

// retryable reports whether err is worth another attempt: transport
// failures and Temporary daemon errors are; context expiry and hard
// HTTP errors are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *Error
	if errors.As(err, &he) {
		return he.Temporary()
	}
	return true // transport-level failure: connection refused, reset, ...
}

// do runs one call with retry, backoff and the circuit breaker. The
// body is kept as bytes so every attempt rebuilds a fresh request.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	for attempt := 0; ; attempt++ {
		probe, ok := c.br.allow()
		if !ok {
			return fmt.Errorf("%w (endpoint %s)", ErrCircuitOpen, c.base)
		}
		err = c.once(ctx, method, path, body, out)
		c.record(ctx, err, probe)
		if err == nil || attempt >= c.maxRetries || !retryable(err) {
			return err
		}
		// Jittered exponential backoff, stretched to any Retry-After the
		// daemon sent, cut short by the request context.
		wait := c.jitter(c.retryBase << attempt)
		var he *Error
		if errors.As(err, &he) && he.RetryAfter > wait {
			wait = he.RetryAfter
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("searchclient: %w (last attempt: %v)", ctx.Err(), err)
		case <-timer.C:
		}
	}
}

// readBufPool recycles response-read buffers across calls: a batch
// response can run to megabytes, and io.ReadAll's grow-by-doubling
// garbage on every call is the client's biggest allocation source.
var readBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// once is a single request/response cycle.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := readBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer readBufPool.Put(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 16<<20)); err != nil {
		return err
	}
	data := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		var eb errBody
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		he := &Error{Status: resp.StatusCode, Message: msg}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return he
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("searchclient: decode %s response: %w", path, err)
	}
	return nil
}

// jitter maps d to a uniform duration in [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	c.jmu.Lock()
	u := c.jitterRNG.Float64()
	c.jmu.Unlock()
	return d/2 + time.Duration(u*float64(d/2))
}

// record feeds an attempt's outcome to the breaker. Any HTTP response
// counts as a success — even a 503 proves the endpoint is up and
// serving; the breaker guards against unreachable endpoints, not
// admission refusals (retry handles those). An attempt cut short by
// its own context says nothing about the endpoint — the caller gave
// up, perhaps on a budget shorter than any answer takes — so it counts
// as neither, and hands back the half-open probe slot if it held it.
func (c *Client) record(ctx context.Context, err error, probe bool) {
	var he *Error
	switch {
	case err == nil || errors.As(err, &he):
		c.br.success()
	case ctx.Err() != nil:
		c.br.abandon(probe)
	default:
		c.br.failure()
	}
}

// breaker is a minimal three-state circuit breaker: closed counts
// consecutive failures; at threshold it opens and fails fast for
// cooldown; then a single half-open probe either closes it or reopens
// the cooldown.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	probing   bool
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether an attempt may go on the wire, and whether it
// is the half-open probe.
func (b *breaker) allow() (probe, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return false, true
	}
	if time.Now().Before(b.openUntil) {
		return false, false
	}
	// Cooldown over: admit one probe, hold everyone else.
	if b.probing {
		return false, false
	}
	b.probing = true
	return true, true
}

// abandon records an attempt that ended without a verdict on the
// endpoint; a probe's slot goes to the next caller.
func (b *breaker) abandon(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.openUntil = time.Time{}
	b.probing = false
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.probing || b.failures >= b.threshold {
		b.openUntil = time.Now().Add(b.cooldown)
		b.probing = false
		b.failures = 0
	}
}
