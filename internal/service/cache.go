package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is the content-addressed result store: canonical request
// hash → finished result, LRU-evicted under a byte budget. Entries are
// immutable once inserted (a GET personalizes cache_hit while it writes
// the stored bytes), so a cached result can be served to any number of
// jobs concurrently without locking beyond the lookup.
//
// Beside the key index sits the request index: body digest → the entry a
// full compile of that body resolved to, plus the identity the compile
// gave the job. It is what lets a repeated request be answered without
// decoding it. An alias is charged to the budget and goes with its entry,
// so every alias names a cached result.
type resultCache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	ll       *list.List // *cacheEntry, front = most recently used
	byKey    map[string]*list.Element
	byDigest map[requestDigest]requestAlias

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key     string
	size    int64 // encoded result plus its aliases
	res     *encodedResult
	digests []requestDigest // aliases resolving to this entry
}

// requestAlias is one request-index entry: the cache entry a body's key
// names and what else admit and the status response read of a job
// answered from the cache.
type requestAlias struct {
	el      *list.Element
	tenant  string
	circuit string
	levels  []float64
}

// aliasBytes is what one alias costs against the budget before its
// identity: its digest in the index and in its entry, the index's map
// overhead and the identity's headers.
const aliasBytes = 96

func (a *requestAlias) size() int64 {
	return aliasBytes + int64(len(a.tenant)+len(a.circuit)+8*len(a.levels))
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget: budget, ll: list.New(),
		byKey: map[string]*list.Element{}, byDigest: map[requestDigest]requestAlias{},
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *resultCache) Get(key string) (*encodedResult, bool) {
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

// Resolve is Get by body digest: the job an alias describes, compiled as
// far as a cache answer needs. A hit counts as Get's does; a digest with
// no alias counts nothing, as the caller's full compile then asks Get.
func (c *resultCache) Resolve(d requestDigest) (*compiled, bool) {
	c.mu.Lock()
	a, ok := c.byDigest[d]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(a.el)
	c.hits.Add(1)
	ent := a.el.Value.(*cacheEntry)
	c.mu.Unlock()
	return &compiled{
		tenant: a.tenant, src: circuitSource{name: a.circuit}, levels: a.levels,
		key: ent.key, hit: ent.res, digest: d, cacheable: true,
	}, true
}

// Alias records that a full compile of job's body resolved to its key.
// Without a cached entry for the key there is nothing to alias, and the
// body keeps taking the full path; a replayed job has no body.
func (c *resultCache) Alias(job *Job) {
	if job.digest == (requestDigest{}) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byDigest[job.digest]; ok {
		return
	}
	el, ok := c.byKey[job.Key]
	if !ok {
		return
	}
	a := requestAlias{el: el, tenant: job.Tenant, circuit: job.Circuit, levels: job.Levels}
	ent := el.Value.(*cacheEntry)
	ent.digests = append(ent.digests, job.digest)
	ent.size += a.size()
	c.used += a.size()
	c.byDigest[job.digest] = a
	c.evictLocked()
}

// Put inserts res under key, evicting least-recently-used entries until
// the byte budget holds. The entry's cost is the response body it keeps,
// so the budget approximates real response-serving capacity. A result
// bigger than the whole budget is simply not cached.
func (c *resultCache) Put(key string, res *encodedResult) {
	if res.head == nil {
		return // unencodable results cannot be served anyway
	}
	size := int64(len(res.head))
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
