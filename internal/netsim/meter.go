package netsim

import "fmt"

// MessageKind classifies metered traffic. The paper's "query overhead"
// figures count query propagations; invitation/eviction control traffic
// is metered separately so the reconfiguration cost can be reported.
type MessageKind uint8

const (
	// MsgQuery is a search-query propagation (one hop = one message).
	MsgQuery MessageKind = iota
	// MsgReply is a result or NOT-FOUND reply traveling back.
	MsgReply
	// MsgExplore is an exploration (metadata-only) propagation.
	MsgExplore
	// MsgInvite is a symmetric-update invitation.
	MsgInvite
	// MsgEvict is a symmetric-update eviction notice.
	MsgEvict
	// MsgInviteReply is the positive/negative answer to an invitation.
	MsgInviteReply
	numMessageKinds
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case MsgQuery:
		return "query"
	case MsgReply:
		return "reply"
	case MsgExplore:
		return "explore"
	case MsgInvite:
		return "invite"
	case MsgEvict:
		return "evict"
	case MsgInviteReply:
		return "invite-reply"
	default:
		return fmt.Sprintf("MessageKind(%d)", uint8(k))
	}
}

// Meter accumulates message counts bucketed per simulated hour, one
// series per message kind. It backs Figures 1(b) and 2(b).
type Meter struct {
	bucketSec float64
	counts    [numMessageKinds][]uint64
}

// NewMeter returns a meter with the given bucket width in simulated
// seconds (the paper buckets per hour: 3600).
func NewMeter(bucketSec float64) *Meter {
	if bucketSec <= 0 {
		panic(fmt.Sprintf("netsim: non-positive meter bucket %v", bucketSec))
	}
	return &Meter{bucketSec: bucketSec}
}

// Count records n messages of the given kind at simulated time now.
func (m *Meter) Count(kind MessageKind, now float64, n uint64) {
	if kind >= numMessageKinds {
		panic(fmt.Sprintf("netsim: unknown message kind %d", kind))
	}
	b := int(now / m.bucketSec)
	if b < 0 {
		panic(fmt.Sprintf("netsim: negative meter time %v", now))
	}
	s := m.counts[kind]
	for len(s) <= b {
		s = append(s, 0)
	}
	s[b] += n
	m.counts[kind] = s
}

// Series returns the per-bucket counts for one message kind. The
// returned slice is a copy.
func (m *Meter) Series(kind MessageKind) []uint64 {
	out := make([]uint64, len(m.counts[kind]))
	copy(out, m.counts[kind])
	return out
}

// Total returns the sum over all buckets for one message kind.
func (m *Meter) Total(kind MessageKind) uint64 {
	var t uint64
	for _, v := range m.counts[kind] {
		t += v
	}
	return t
}

// Bucket returns the count of one kind in one bucket (0 when the bucket
// was never touched).
func (m *Meter) Bucket(kind MessageKind, b int) uint64 {
	if b < 0 || b >= len(m.counts[kind]) {
		return 0
	}
	return m.counts[kind][b]
}
