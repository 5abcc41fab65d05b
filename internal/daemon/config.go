package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Transport selection for a daemon's envelope plane.
const (
	// TransportChan runs the whole cluster in one process over the
	// in-process channel fabric (Total must equal Nodes). This is the
	// CI-scale deployment and the parity harness's subject.
	TransportChan = "chan"
	// TransportTCP gives every local node a loopback TCP listener and
	// delivers cross-process envelopes over gob/TCP; membership gossip
	// distributes the listener addresses.
	TransportTCP = "tcp"
)

// Config parameterizes one dsearchd process. The zero value is not
// runnable; ApplyDefaults fills the optional fields and Validate
// rejects the rest. Durations are carried as integer milliseconds so a
// config file is plain JSON numbers.
type Config struct {
	// Name is this process's cluster-unique member name; defaults to
	// "d<BaseID>".
	Name string `json:"name"`
	// HTTPAddr is the control/query-plane listen address; ":0" and
	// "127.0.0.1:0" bind an ephemeral port (Server.Addr reports it).
	HTTPAddr string `json:"http_addr"`
	// Transport is TransportChan or TransportTCP.
	Transport string `json:"transport"`
	// NodeHost is the host node listeners bind on in TCP mode.
	NodeHost string `json:"node_host"`

	// Nodes is the local shard size; BaseID its first node ID; Total
	// the whole cluster's node count (0 means Nodes — single-process).
	Nodes  int `json:"nodes"`
	BaseID int `json:"base_id"`
	Total  int `json:"total"`

	// Seed, Degree, Keys and Replicas parameterize the shared World;
	// every member of one cluster must agree on them (and on Total).
	Seed     uint64 `json:"seed"`
	Degree   int    `json:"degree"`
	Keys     int    `json:"keys"`
	Replicas int    `json:"replicas"`

	// TTL is the default search depth; Policy the pkg/search registry
	// name each node forwards with; Class the advertised bandwidth
	// class ("56k", "cable", "lan").
	TTL    int    `json:"ttl"`
	Policy string `json:"policy"`
	Class  string `json:"class"`

	// Join lists seed daemon HTTP addresses for membership bootstrap.
	Join []string `json:"join"`
	// GossipIntervalMillis paces peer-exchange rounds; GossipFanout is
	// how many peers each round contacts.
	GossipIntervalMillis int `json:"gossip_interval_ms"`
	GossipFanout         int `json:"gossip_fanout"`

	// QueryWindowMillis is the default per-query hit-collection window
	// when a request does not carry its own. A search normally ends
	// when its flood terminates; the window is the fallback for a flood
	// whose end could not be detected (a lost ack), and a response that
	// ends on it is degraded ("deadline").
	QueryWindowMillis int `json:"query_window_ms"`
	// BatchWorkers is how many goroutines drain one
	// POST /v1/query/batch slab, i.e. how many of its floods are in the
	// fabric at once.
	BatchWorkers int `json:"batch_workers"`
	// MaxBatch caps the number of queries one batch request may carry;
	// larger slabs are rejected whole (400).
	MaxBatch int `json:"max_batch"`
	// DrainTimeoutMillis bounds how long Drain waits for in-flight
	// queries before giving up on them.
	DrainTimeoutMillis int `json:"drain_timeout_ms"`

	// FDSuspectRounds/FDEvictRounds/FDAmnestyRounds tune the heartbeat
	// failure detector, in gossip rounds: a member is suspected after
	// FDSuspectRounds without a heartbeat advance, evicted after
	// FDEvictRounds, and its eviction tombstone expires after
	// FDAmnestyRounds (so a restarted member can rejoin). Defaults
	// 3/6/12.
	FDSuspectRounds int `json:"fd_suspect_rounds"`
	FDEvictRounds   int `json:"fd_evict_rounds"`
	FDAmnestyRounds int `json:"fd_amnesty_rounds"`

	// Faults configures deterministic message-fault injection on this
	// process's transport (all zero: no injection). Crash/partition
	// control is always available regardless.
	Faults FaultsConfig `json:"faults"`
}

// FaultsConfig is the config-file face of faults.Config: per-message
// fault rates for the process's transport plane.
type FaultsConfig struct {
	// Seed roots the per-link decision streams; 0 derives one from the
	// cluster seed so all processes of a seeded cluster agree.
	Seed uint64 `json:"seed"`
	// Drop, Dup and Reorder are per-message probabilities in [0,1).
	Drop    float64 `json:"drop"`
	Dup     float64 `json:"dup"`
	Reorder float64 `json:"reorder"`
	// DelayMinMillis/DelayMaxMillis add uniform per-message latency.
	DelayMinMillis int `json:"delay_min_ms"`
	DelayMaxMillis int `json:"delay_max_ms"`
}

// ApplyDefaults fills unset optional fields in place.
func (c *Config) ApplyDefaults() {
	if c.Transport == "" {
		c.Transport = TransportChan
	}
	if c.NodeHost == "" {
		c.NodeHost = "127.0.0.1"
	}
	if c.Total == 0 {
		c.Total = c.Nodes
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("d%d", c.BaseID)
	}
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Keys == 0 {
		c.Keys = 256
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.TTL == 0 {
		c.TTL = 4
	}
	if c.Policy == "" {
		c.Policy = "flood"
	}
	if c.Class == "" {
		c.Class = "cable"
	}
	if c.GossipIntervalMillis == 0 {
		c.GossipIntervalMillis = 500
	}
	if c.GossipFanout == 0 {
		c.GossipFanout = 2
	}
	if c.QueryWindowMillis == 0 {
		c.QueryWindowMillis = 100
	}
	if c.DrainTimeoutMillis == 0 {
		c.DrainTimeoutMillis = 10_000
	}
	if c.BatchWorkers == 0 {
		c.BatchWorkers = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16_384
	}
	if c.FDSuspectRounds == 0 {
		c.FDSuspectRounds = 3
	}
	if c.FDEvictRounds == 0 {
		c.FDEvictRounds = 6
	}
	if c.FDAmnestyRounds == 0 {
		c.FDAmnestyRounds = 12
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed ^ 0xfa017fa017fa017
	}
}

// Validate reports configuration errors after defaulting.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("daemon: non-positive local node count %d", c.Nodes)
	case c.BaseID < 0:
		return fmt.Errorf("daemon: negative base ID %d", c.BaseID)
	case c.Total < c.BaseID+c.Nodes:
		return fmt.Errorf("daemon: total %d < base %d + nodes %d", c.Total, c.BaseID, c.Nodes)
	case c.Transport != TransportChan && c.Transport != TransportTCP:
		return fmt.Errorf("daemon: unknown transport %q", c.Transport)
	case c.Transport == TransportChan && (c.Total != c.Nodes || c.BaseID != 0):
		return fmt.Errorf("daemon: chan transport requires the whole cluster in-process (base 0, total == nodes)")
	case c.Degree <= 0 || c.TTL <= 0 || c.Keys <= 0 || c.Replicas <= 0:
		return fmt.Errorf("daemon: degree/ttl/keys/replicas must be positive")
	case c.TTL > 255:
		return fmt.Errorf("daemon: ttl %d exceeds the wire limit of 255", c.TTL)
	case c.GossipFanout <= 0 || c.GossipIntervalMillis <= 0:
		return fmt.Errorf("daemon: gossip fanout and interval must be positive")
	case c.QueryWindowMillis <= 0 || c.DrainTimeoutMillis <= 0:
		return fmt.Errorf("daemon: query_window_ms and drain_timeout_ms must be positive")
	case c.BatchWorkers <= 0 || c.MaxBatch <= 0:
		return fmt.Errorf("daemon: batch_workers and max_batch must be positive")
	case c.FDSuspectRounds <= 0 || c.FDAmnestyRounds <= 0:
		return fmt.Errorf("daemon: fd_suspect_rounds and fd_amnesty_rounds must be positive")
	case c.FDEvictRounds <= c.FDSuspectRounds:
		return fmt.Errorf("daemon: fd_evict_rounds %d must exceed fd_suspect_rounds %d",
			c.FDEvictRounds, c.FDSuspectRounds)
	case badRate(c.Faults.Drop) || badRate(c.Faults.Dup) || badRate(c.Faults.Reorder):
		return fmt.Errorf("daemon: fault rates must lie in [0,1)")
	case c.Faults.DelayMinMillis < 0:
		return fmt.Errorf("daemon: negative fault delay min %dms", c.Faults.DelayMinMillis)
	case c.Faults.DelayMaxMillis < c.Faults.DelayMinMillis:
		return fmt.Errorf("daemon: fault delay max %dms < min %dms",
			c.Faults.DelayMaxMillis, c.Faults.DelayMinMillis)
	}
	return nil
}

// badRate is written so that NaN (which flag.Float64 parses) is bad.
func badRate(r float64) bool { return !(r >= 0 && r < 1) }

// GossipInterval, QueryWindow and DrainTimeout return the millisecond
// fields as durations.
func (c *Config) GossipInterval() time.Duration {
	return time.Duration(c.GossipIntervalMillis) * time.Millisecond
}
func (c *Config) QueryWindow() time.Duration {
	return time.Duration(c.QueryWindowMillis) * time.Millisecond
}
func (c *Config) DrainTimeout() time.Duration {
	return time.Duration(c.DrainTimeoutMillis) * time.Millisecond
}

// LoadConfig reads a JSON config file; unknown fields are errors so a
// typo fails the boot instead of silently defaulting.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: read config: %w", err)
	}
	c, err := parseConfig(data)
	if err != nil {
		return c, fmt.Errorf("daemon: parse config %s: %w", path, err)
	}
	return c, nil
}

// parseConfig decodes exactly one JSON object; anything after it is an
// error, not a silently ignored second config.
func parseConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return c, errors.New("trailing data after the config object")
	}
	return c, nil
}
