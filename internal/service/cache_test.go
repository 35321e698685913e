package service

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"testing"
)

func testDigest(i int) requestDigest { return sha256.Sum256([]byte(fmt.Sprint(i))) }

// aliasJob is a job of tenant acme over circuit tiny at one level whose
// body had digest testDigest(i) and compiled to key.
func aliasJob(i int, key string) *Job {
	return &Job{Tenant: "acme", Circuit: "tiny", Levels: []float64{1}, Key: key, digest: testDigest(i)}
}

// aliasJobBytes is what aliasJob's alias is charged: aliasBytes plus its
// tenant, circuit name and one level.
const aliasJobBytes = aliasBytes + 4 + 4 + 8

// checkCache asserts the cache's invariants: used is the sum of the
// entries' sizes (aliases included) and within budget, and every alias
// names a cached entry that lists it.
func checkCache(t *testing.T, c *resultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	aliases := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		sum += ent.size
		aliases += len(ent.digests)
		for _, d := range ent.digests {
			if c.byDigest[d].el != el {
				t.Fatalf("alias of %s does not resolve to it", ent.key)
			}
		}
	}
	if sum != c.used || c.used > c.budget {
		t.Fatalf("used %d, entries sum to %d, budget %d", c.used, sum, c.budget)
	}
	if aliases != len(c.byDigest) {
		t.Fatalf("%d aliases in entries, %d in the index", aliases, len(c.byDigest))
	}
}

// TestCacheAliasAccounting: a result is charged the response bytes it
// keeps, and aliases are charged to the budget, however many of them one
// result collects.
func TestCacheAliasAccounting(t *testing.T) {
	res := encodeResult(&JobResult{Circuit: "tiny", Complete: true})
	size := int64(len(res.head))

	c := newResultCache(1 << 20)
	c.Put("k", res)
	c.Alias(aliasJob(0, "k"))
	c.Alias(aliasJob(0, "k")) // a known digest is charged once
	c.Alias(aliasJob(1, "gone"))
	c.Alias(&Job{Key: "k"}) // a replayed job has no body to alias
	if _, bytes, _, _ := c.Stats(); bytes != size+aliasJobBytes {
		t.Fatalf("used %d, want %d for one result and one alias", bytes, size+aliasJobBytes)
	}
	checkCache(t, c)
	comp, ok := c.Resolve(testDigest(0))
	if !ok || comp.key != "k" || comp.hit != res || comp.tenant != "acme" || comp.src.name != "tiny" || len(comp.levels) != 1 {
		t.Fatalf("alias resolved to %+v, %v", comp, ok)
	}

	// A budget for two results: the aliases of one crowd out the other,
	// then the result itself, and the cache never goes over.
	c = newResultCache(2*size + 3*aliasJobBytes)
	c.Put("a", res)
	c.Put("b", res)
	for i := 0; i < 64; i++ {
		c.Alias(aliasJob(i, "b"))
		checkCache(t, c)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("the aliases of b did not evict a")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b with 64 aliases is over the whole budget, yet still cached")
	}
	if _, ok := c.Resolve(testDigest(0)); ok {
		t.Fatal("an alias outlived its entry")
	}
}

// TestAliasAfterEviction: a request whose alias went with its evicted
// result is accepted for a fresh run, never answered stale.
func TestAliasAfterEviction(t *testing.T) {
	one := encodeResult(&JobResult{
		Circuit: "tiny", TPLevels: []float64{1}, Table1: "stub-table-1", Complete: true,
		Levels: []LevelStatus{{TPPercent: 1, OK: true}},
	})
	s := stubServer(t, Options{Workers: 1, CacheBytes: int64(len(one.head)) + 2*aliasJobBytes})
	bodyA, bodyB := jobBody(t, "acme", 1), jobBody(t, "acme", 2)
	_, a := submitDone(t, s, bodyA)
	if !aliased(t, s, bodyA) {
		t.Fatal("a published result aliased none of its waiters' requests")
	}
	submitDone(t, s, bodyB)
	if aliased(t, s, bodyA) {
		t.Fatal("A's alias outlived A's evicted result")
	}
	runs := s.FlowRuns()
	code, again := submitDone(t, s, bodyA)
	if code != http.StatusAccepted || again.CacheHit || s.FlowRuns() != runs+1 || again.Key != a.Key {
		t.Fatalf("resubmit after eviction = %d cache_hit=%v runs %d→%d", code, again.CacheHit, runs, s.FlowRuns())
	}
	checkCache(t, s.cache)
}
