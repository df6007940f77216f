package jobs

import (
	"container/list"
	"sync"
)

// store is the content-addressed result cache: completed results keyed by
// lowutil.Request.Hash, bounded by an LRU — the same discipline as the server's
// session cache. A resubmitted spec whose result is still resident
// completes instantly; an evicted entry just means the work runs again.
type store struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type storeEntry struct {
	key string
	res *Result
}

func newStore(max int) *store {
	if max <= 0 {
		max = 256
	}
	return &store{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached result for key, refreshing its LRU position.
func (c *store) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*storeEntry).res, true
}

// put inserts res for key, evicting the least recently used entries over
// the bound. It reports how many entries were evicted.
func (c *store) put(key string, res *Result) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*storeEntry).res = res
		return 0
	}
	c.m[key] = c.lru.PushFront(&storeEntry{key: key, res: res})
	evicted := 0
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*storeEntry).key)
		evicted++
	}
	return evicted
}

// evict drops the entry for key and reports whether one existed. Tests use
// it to force the evicted-entry recovery path.
func (c *store) evict(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return false
	}
	c.lru.Remove(el)
	delete(c.m, key)
	return true
}

// len returns the number of resident results.
func (c *store) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
