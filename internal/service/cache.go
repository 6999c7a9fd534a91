package service

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity LRU map from cache key to a completed
// cluster result. Graphs are immutable and the algorithms deterministic
// given their parameters, so entries never go stale; eviction is purely
// capacity-driven. Safe for concurrent use: every method takes the cache's
// own lock — get included, since its recency bump mutates the list.
//
// Ownership rule: stored values own all of their memory and are never
// written. A result is owned from the moment it is computed, but its
// member list is the head of the sweep order — a slice over the query's
// whole support. The engine therefore copies each answer once
// (detachResult), and that exact-size copy is what the cache stores, flight
// followers receive and the requester reads, so an entry retains its
// members and nothing behind them. The retained bytes are accounted per
// entry and reported as cache_bytes in /v1/stats.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // value: *lruEntry
	nbyte int64                    // footprint of all retained entries
}

type lruEntry struct {
	key string
	val *ClusterResult
}

// detachResult returns a copy of res whose Members slice has exactly its
// length as capacity, so whoever keeps the copy does not keep alive the
// sweep order (or evolving-set buffer) the members were cut from. It is the
// one copy of a computed result. nil members stay nil.
func detachResult(res *ClusterResult) *ClusterResult {
	out := *res
	if res.Members != nil {
		out.Members = make([]uint32, len(res.Members))
		copy(out.Members, res.Members)
	}
	return &out
}

// resultFootprint estimates the heap bytes an entry retains: the member
// and seed payloads (4 bytes per vertex ID) plus a fixed allowance for the
// struct, the key and the list/map bookkeeping.
func resultFootprint(key string, val *ClusterResult) int64 {
	const entryOverhead = 256
	return int64(len(val.Members))*4 + int64(len(val.Seeds))*4 +
		int64(len(key)) + entryOverhead
}

// newLRUCache returns a cache holding at most max entries. With max <= 0
// caching is disabled: every put evicts what it inserted, so nothing is
// ever retained and every get misses.
func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key, marking it most recently used.
func (c *lruCache) get(key string) (*ClusterResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when over capacity. val must own its memory (see detachResult).
func (c *lruCache) put(key string, val *ClusterResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		entry := el.Value.(*lruEntry)
		c.nbyte += resultFootprint(key, val) - resultFootprint(key, entry.val)
		entry.val = val
		return
	}
	el := c.ll.PushFront(&lruEntry{key: key, val: val})
	c.items[key] = el
	c.nbyte += resultFootprint(key, val)
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		entry := oldest.Value.(*lruEntry)
		delete(c.items, entry.key)
		c.nbyte -= resultFootprint(entry.key, entry.val)
	}
}

// len reports the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytes reports the estimated footprint of all retained entries.
func (c *lruCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nbyte
}
