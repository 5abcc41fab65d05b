// Package lru provides the fixed-capacity least-recently-used cache of
// content keys shared by the caching case studies: Squid-style proxies
// keep hot pages, PeerOlap peers keep hot chunks. Only presence matters
// to the search framework, so values are not stored.
//
// The implementation is an intrusive doubly linked list over a map,
// giving O(1) Get/Put/eviction without container/list's interface
// boxing.
package lru

import (
	"fmt"

	"repro/internal/digest"
)

// LRU is a fixed-capacity least-recently-used cache of content keys.
type LRU struct {
	capacity int
	items    map[digest.Key]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	key        digest.Key
	prev, next *lruNode
}

// New returns an empty cache with the given capacity.
func New(capacity int) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: LRU capacity %d", capacity))
	}
	return &LRU{capacity: capacity, items: make(map[digest.Key]*lruNode, capacity)}
}

// Contains reports presence without refreshing recency.
func (c *LRU) Contains(key digest.Key) bool {
	_, ok := c.items[key]
	return ok
}

// Get reports presence and refreshes recency on hit.
func (c *LRU) Get(key digest.Key) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

// Put inserts key (refreshing recency if present), evicting the LRU
// entry when full. It reports whether the key was newly inserted.
func (c *LRU) Put(key digest.Key) bool {
	if n, ok := c.items[key]; ok {
		c.moveToFront(n)
		return false
	}
	if len(c.items) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.items, lru.key)
	}
	n := &lruNode{key: key}
	c.items[key] = n
	c.pushFront(n)
	return true
}

// Keys returns all cached keys from most to least recently used.
func (c *LRU) Keys() []digest.Key {
	out := make([]digest.Key, 0, len(c.items))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

func (c *LRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
