package service

import (
	"container/list"
	"crypto/sha256"
)

// resultCache is a small LRU over serialized report documents, keyed by the
// exact-request key (requestKey) and, for an entry that a POST body has
// reached through a JSON decode, by that body's SHA-256 as well. It is not
// internally locked: the Server owns it and every access happens under the
// Server's mutex, which also keeps the hit/miss counters coherent with the
// lookups they describe.
type resultCache struct {
	cap     int
	byKey   map[string]*list.Element
	byBody  map[bodySum]*list.Element // at most one sum per entry
	recency *list.List                // front = most recently used
}

// bodySum is the SHA-256 of a POST /v1/jobs body. The zero value stands for
// no body: a library submission or a report restored from the journal.
type bodySum [sha256.Size]byte

type cacheEntry struct {
	key    string
	origin string // ID of the job whose execution produced the report
	module string // that job's module name, which a hit serves unparsed
	report *storedReport
	// body is the sum of the POST body that stored the entry, or of the one
	// that last hit it through a decode, and opts are that body's
	// normalized options. Equal bytes decode to the same request, so a
	// submission with this sum is a hit on this entry under these options
	// without a decode.
	body bodySum
	opts JobOptions
}

// newResultCache returns a cache holding at most capacity reports;
// capacity <= 0 disables caching (every lookup misses, every store drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		byKey:   make(map[string]*list.Element),
		byBody:  make(map[bodySum]*list.Element),
		recency: list.New(),
	}
}

func (c *resultCache) get(key string) (cacheEntry, bool) {
	return c.touch(c.byKey[key])
}

// getBody looks an entry up by the sum of a body that decoded to its key.
func (c *resultCache) getBody(sum bodySum) (cacheEntry, bool) {
	return c.touch(c.byBody[sum])
}

func (c *resultCache) touch(el *list.Element) (cacheEntry, bool) {
	if el == nil {
		return cacheEntry{}, false
	}
	c.recency.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

func (c *resultCache) put(e cacheEntry) {
	if c.cap <= 0 {
		return
	}
	el, ok := c.byKey[e.key]
	if ok {
		c.unindexBody(el)
		*el.Value.(*cacheEntry) = e
		c.recency.MoveToFront(el)
	} else {
		el = c.recency.PushFront(&e)
		c.byKey[e.key] = el
	}
	c.indexBody(el)
	for c.recency.Len() > c.cap {
		oldest := c.recency.Back()
		c.recency.Remove(oldest)
		c.unindexBody(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// setBody records sum, with its normalized options, as the body that
// reaches the entry under key, in place of the entry's previous body. It
// does nothing when no entry holds key.
func (c *resultCache) setBody(key string, sum bodySum, opts JobOptions) {
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	c.unindexBody(el)
	e := el.Value.(*cacheEntry)
	e.body, e.opts = sum, opts
	c.indexBody(el)
}

func (c *resultCache) indexBody(el *list.Element) {
	if sum := el.Value.(*cacheEntry).body; sum != (bodySum{}) {
		c.byBody[sum] = el
	}
}

func (c *resultCache) unindexBody(el *list.Element) {
	if sum := el.Value.(*cacheEntry).body; sum != (bodySum{}) {
		delete(c.byBody, sum)
	}
}

func (c *resultCache) len() int { return c.recency.Len() }
