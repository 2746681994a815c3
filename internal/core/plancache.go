package core

import (
	"container/list"
	"sync"

	"fungusdb/internal/query"
)

// planCacheCap bounds each table's compiled-statement cache. Plans are
// small (a parse tree plus expanded targets), so the cap is generous
// enough that steady workloads never evict, while an adversarial
// stream of distinct statements stays bounded.
const planCacheCap = 128

// planCache is a small LRU of compiled plans keyed by source text ("s"
// statements, "a" container questions). A table owns one: its schema
// never changes, so cached compilations stay valid for the table's
// lifetime, and repeated Prepare/SQL calls with the same source skip the
// parse and validation entirely. Safe for concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	hits    uint64
	misses  uint64
}

type planCacheEntry struct {
	key  string
	plan *query.Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		lru:     list.New(),
	}
}

// get returns the cached plan for key, nil on miss.
func (c *planCache) get(key string) *query.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planCacheEntry).plan
}

// put inserts key -> plan, evicting the least recently used entry when
// the cache is full.
func (c *planCache) put(key string, plan *query.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*planCacheEntry).plan = plan
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		if oldest != nil {
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*planCacheEntry).key)
		}
	}
	c.entries[key] = c.lru.PushFront(&planCacheEntry{key: key, plan: plan})
}

// Stats reports cache effectiveness.
func (c *planCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
