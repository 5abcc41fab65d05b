package searchclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// rtFunc lets a test script transport-level outcomes directly.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okResponse() *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader("{}")),
		Header:     http.Header{},
	}
}

func errResponse(code int) *http.Response {
	return &http.Response{
		StatusCode: code,
		Body:       io.NopCloser(strings.NewReader(`{"error":"scripted"}`)),
		Header:     http.Header{},
	}
}

// A 503 is retried until the daemon recovers; the successful attempt's
// response comes back as if nothing happened.
func TestRetryRecoversFromTemporaryErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
			return
		}
		json.NewEncoder(w).Encode(QueryResponse{Origin: 1})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(3, time.Millisecond))
	resp, err := c.Query(context.Background(), QueryRequest{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Origin != 1 || calls.Load() != 3 {
		t.Fatalf("origin %d after %d calls, want 1 after 3", resp.Origin, calls.Load())
	}
}

// Hard HTTP errors are not retried: the request is wrong, not the
// moment.
func TestNoRetryOnHardErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad key"})
	}))
	defer ts.Close()

	_, err := New(ts.URL, WithRetry(5, time.Millisecond)).
		Query(context.Background(), QueryRequest{Key: 1})
	var he *Error
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 *Error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("hard error was attempted %d times, want 1", calls.Load())
	}
}

// The request context's deadline cuts the retry loop short, and the
// returned error carries both the context verdict and the last attempt.
func TestContextDeadlineCutsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := New(ts.URL, WithRetry(50, 30*time.Millisecond)).Ready(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retry loop ran %v past a 50ms deadline", elapsed)
	}
}

// Retry-After is parsed into the surfaced error so callers that manage
// their own retrying see the daemon's hint.
func TestRetryAfterParsed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	err := New(ts.URL, WithRetry(0, 0)).Ready(context.Background())
	var he *Error
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *Error", err)
	}
	if he.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", he.RetryAfter)
	}
	if !he.Temporary() {
		t.Fatal("503 not Temporary")
	}
}

// Temporary covers exactly the admit-later statuses.
func TestErrorTemporary(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusServiceUnavailable, true},
		{http.StatusTooManyRequests, true},
		{http.StatusBadRequest, false},
		{http.StatusConflict, false},
		{http.StatusInternalServerError, false},
	} {
		e := &Error{Status: tc.status}
		if e.Temporary() != tc.want {
			t.Errorf("Temporary(%d) = %v, want %v", tc.status, e.Temporary(), tc.want)
		}
	}
}

// The breaker opens after consecutive transport failures, fails fast
// while open, and a successful half-open probe closes it again.
func TestBreakerOpensAndRecloses(t *testing.T) {
	var transportUp atomic.Bool
	var dials atomic.Int32
	hc := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		dials.Add(1)
		if !transportUp.Load() {
			return nil, errors.New("dial tcp: connection refused")
		}
		return okResponse(), nil
	})}
	c := New("127.0.0.1:1", WithHTTPClient(hc), WithRetry(0, 0))
	c.br = newBreaker(2, 30*time.Millisecond)

	for i := 0; i < 2; i++ {
		if err := c.Ready(context.Background()); err == nil {
			t.Fatal("scripted dial failure returned nil")
		}
	}
	// Open: fails fast without touching the transport.
	before := dials.Load()
	err := c.Ready(context.Background())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("got %v, want ErrCircuitOpen", err)
	}
	if dials.Load() != before {
		t.Fatal("open breaker still dialed")
	}

	// After the cooldown a probe goes through; success recloses.
	transportUp.Store(true)
	time.Sleep(40 * time.Millisecond)
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
}

// A failed half-open probe reopens the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	hc := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("dial tcp: connection refused")
	})}
	c := New("127.0.0.1:1", WithHTTPClient(hc), WithRetry(0, 0))
	c.br = newBreaker(1, 20*time.Millisecond)

	_ = c.Ready(context.Background()) // opens
	time.Sleep(30 * time.Millisecond)
	_ = c.Ready(context.Background()) // probe fails, reopens
	if err := c.Ready(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("got %v, want ErrCircuitOpen after failed probe", err)
	}
}

// HTTP error responses — even a stream of them — never open the
// breaker: the endpoint is demonstrably serving.
func TestBreakerIgnoresHTTPErrors(t *testing.T) {
	hc := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		return errResponse(http.StatusServiceUnavailable), nil
	})}
	c := New("127.0.0.1:1", WithHTTPClient(hc), WithRetry(0, 0))
	c.br = newBreaker(2, time.Minute)

	for i := 0; i < 10; i++ {
		err := c.Ready(context.Background())
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker opened on HTTP 503 at call %d", i)
		}
		var he *Error
		if !errors.As(err, &he) {
			t.Fatalf("got %v, want *Error", err)
		}
	}
}

// A caller's own short deadline is not an endpoint failure: a burst of
// calls that each gave up before a healthy, slow daemon answered must
// not open the breaker against the next caller.
func TestBreakerIgnoresCallerTimeouts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		json.NewEncoder(w).Encode(QueryResponse{Origin: 1})
	}))
	defer ts.Close()

	c := New(ts.URL)
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := c.Query(ctx, QueryRequest{Key: 1})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: got %v, want context.DeadlineExceeded", i, err)
		}
	}
	if _, err := c.Query(context.Background(), QueryRequest{Key: 1}); err != nil {
		t.Fatalf("healthy endpoint refused after caller timeouts: %v", err)
	}
}

// A half-open probe whose own context ends hands its slot back: the
// next caller probes, and a success closes the breaker.
func TestBreakerAbandonedProbeFreesSlot(t *testing.T) {
	var transportUp atomic.Bool
	hc := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		if !transportUp.Load() {
			return nil, errors.New("dial tcp: connection refused")
		}
		return okResponse(), nil
	})}
	c := New("127.0.0.1:1", WithHTTPClient(hc), WithRetry(0, 0))
	c.br = newBreaker(1, 20*time.Millisecond)

	_ = c.Ready(context.Background()) // opens
	time.Sleep(30 * time.Millisecond)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Ready(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe on a canceled context: got %v, want context.Canceled", err)
	}
	transportUp.Store(true)
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("breaker stuck half-open after an abandoned probe: %v", err)
	}
}

// Crash and Restart post the fault-control bodies the daemon expects.
func TestCrashRestartEndpoints(t *testing.T) {
	type call struct {
		path string
		node int
	}
	var calls []call
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Node int `json:"node"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("decode body: %v", err)
		}
		calls = append(calls, call{r.URL.Path, body.Node})
		json.NewEncoder(w).Encode(map[string]any{"node": body.Node})
	}))
	defer ts.Close()

	c := New(ts.URL)
	if err := c.Crash(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	want := []call{{"/v1/control/crash", 7}, {"/v1/control/restart", 7}}
	if len(calls) != 2 || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
}

// The backoff jitter stays within [d/2, d] and actually varies.
func TestClientJitterBounds(t *testing.T) {
	c := New("127.0.0.1:1")
	const d = 100 * time.Millisecond
	seen := map[time.Duration]struct{}{}
	for i := 0; i < 200; i++ {
		j := c.jitter(d)
		if j < d/2 || j > d {
			t.Fatalf("jitter %v outside [%v, %v]", j, d/2, d)
		}
		seen[j] = struct{}{}
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct values", len(seen))
	}
}
