package service

import "container/list"

// resultCache is a small LRU over serialized report documents, keyed by the
// exact-request key (requestKey). It is not internally locked: the Server
// owns it and every access happens under the Server's mutex, which also
// keeps the hit/miss counters coherent with the lookups they describe.
type resultCache struct {
	cap     int
	byKey   map[string]*list.Element
	recency *list.List // front = most recently used
}

type cacheEntry struct {
	key    string
	origin string // ID of the job whose execution produced the report
	module string // that job's module name, which a hit serves unparsed
	report []byte
}

// newResultCache returns a cache holding at most capacity reports;
// capacity <= 0 disables caching (every lookup misses, every store drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		byKey:   make(map[string]*list.Element),
		recency: list.New(),
	}
}

func (c *resultCache) get(key string) (cacheEntry, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.recency.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

func (c *resultCache) put(e cacheEntry) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.byKey[e.key]; ok {
		*el.Value.(*cacheEntry) = e
		c.recency.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.recency.PushFront(&e)
	for c.recency.Len() > c.cap {
		oldest := c.recency.Back()
		c.recency.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int { return c.recency.Len() }
