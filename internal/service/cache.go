package service

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// resultCache is the content-addressed result store: canonical request
// hash → finished JobResult, LRU-evicted under a byte budget. Entries
// are immutable once inserted (handlers copy the top-level struct before
// personalizing per-job fields), so a cached result can be served to any
// number of jobs concurrently without locking beyond the lookup.
//
// Beside the key index sits the request index: request digest (the
// circuit fields as received plus the hashed config) → the entry a full
// compile of those exact bytes resolved to. It is what lets a repeated
// request be answered without parsing its circuit. An alias is charged to
// the budget and goes with its entry, so every alias names a cached
// result.
type resultCache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	ll       *list.List // *cacheEntry, front = most recently used
	byKey    map[string]*list.Element
	byDigest map[requestDigest]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key     string
	size    int64 // encoded result plus its aliases
	res     *JobResult
	digests []requestDigest // aliases resolving to this entry
}

// aliasBytes is what one alias costs against the budget: its digest in
// the index and in its entry, the index's pointer and map overhead.
const aliasBytes = 96

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget: budget, ll: list.New(),
		byKey: map[string]*list.Element{}, byDigest: map[requestDigest]*list.Element{},
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *resultCache) Get(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).res, true
}

// Resolve is Get by request digest: the key and result an alias names.
// A hit counts as Get's does; a digest with no alias counts nothing, as
// the caller's full compile then asks Get.
func (c *resultCache) Resolve(d requestDigest) (string, *JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[d]
	if !ok {
		return "", nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	ent := el.Value.(*cacheEntry)
	return ent.key, ent.res, true
}

// Alias records that a full compile of the request with digest d
// resolved to key. Without a cached entry for key there is nothing to
// alias, and the request keeps taking the full path.
func (c *resultCache) Alias(d requestDigest, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byDigest[d]; ok {
		return
	}
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	ent.digests = append(ent.digests, d)
	ent.size += aliasBytes
	c.used += aliasBytes
	c.byDigest[d] = el
	c.evictLocked()
}

// Put inserts res under key, evicting least-recently-used entries until
// the byte budget holds. The entry's cost is its JSON encoding size — the
// same bytes a result response ships, so the budget approximates real
// response-serving capacity. A result bigger than the whole budget is
// simply not cached.
func (c *resultCache) Put(key string, res *JobResult) {
	data, err := json.Marshal(res)
	if err != nil {
		return // unencodable results cannot be served anyway
	}
	size := int64(len(data))
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Identical key means identical result; just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, size: size, res: res})
	c.used += size
	c.evictLocked()
}

// evictLocked drops least-recently-used entries, and their aliases, until
// the budget holds.
func (c *resultCache) evictLocked() {
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.byKey, ent.key)
		for _, d := range ent.digests {
			delete(c.byDigest, d)
		}
		c.used -= ent.size
	}
}

// Stats returns entry count, used bytes, and hit/miss counters.
func (c *resultCache) Stats() (entries int, bytes, hits, misses int64) {
	c.mu.Lock()
	entries, bytes = c.ll.Len(), c.used
	c.mu.Unlock()
	return entries, bytes, c.hits.Load(), c.misses.Load()
}
