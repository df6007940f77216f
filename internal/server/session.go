// Package server implements `lowutil serve`: a concurrent HTTP profiling
// service over the lowutil facade. Long-lived sessions hold compiled
// programs in an LRU cache; per-session caches memoize completed
// profiling runs and static audits keyed by their resolved options, so
// repeated queries skip recompilation and re-profiling. Every analysis
// endpoint and every job runs through one executor (Server.execute), which
// threads the request context into the facade, which polls it in the
// interpreter main loop and in every static-analysis fixpoint.
package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"lowutil"
)

// sessionKey derives the stable session ID for a compile request: the
// hex-encoded SHA-256 of the entry point and source text.
func sessionKey(src, mainClass, mainMethod string) string {
	h := sha256.New()
	h.Write([]byte(mainClass))
	h.Write([]byte{0})
	h.Write([]byte(mainMethod))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// Session is one compiled program plus its memoized profiling runs and
// static-audit reports. Both memos are keyed by resolved options (see
// lowutil.Options.Resolve), so explicit defaults and fields an analysis
// does not read share one entry.
type Session struct {
	ID      string
	Created time.Time
	Prog    *lowutil.Program

	profiles latch[lowutil.Options, *lowutil.Profile]
	audits   latch[lowutil.Options, string]
}

// profile returns the memoized run for the resolved options o, computing
// it under ctx on a miss; see latch.get. Every query on a finished Profile
// is safe for concurrent use, so readers need no lock.
func (s *Session) profile(ctx context.Context, o lowutil.Options) (*lowutil.Profile, bool, error) {
	return s.profiles.get(ctx, o, func(ctx context.Context) (*lowutil.Profile, error) {
		return s.Prog.ProfileContext(ctx, lowutil.WithOptions(o))
	})
}

// audit returns the memoized static-audit report for the resolved options
// o, computing it under ctx on a miss; see latch.get.
func (s *Session) audit(ctx context.Context, o lowutil.Options) (string, bool, error) {
	return s.audits.get(ctx, o, func(ctx context.Context) (string, error) {
		return s.Prog.StaticAudit(ctx, lowutil.WithOptions(o))
	})
}

// cachedAudits reports how many completed audit reports the session holds.
func (s *Session) cachedAudits() int { return s.audits.len() }

// cachedProfiles reports how many completed runs the session holds.
func (s *Session) cachedProfiles() int { return s.profiles.len() }

// latch memoizes one computation per key.
type latch[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*latchEntry[V]
}

// latchEntry is one computation. done closes when val/err are final; the
// value is immutable afterwards, so readers need no lock.
type latchEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// get returns the value memoized under key, computing it with run under ctx
// on a miss. The second result reports a cache hit — true whenever another
// request already created the entry, including one still in flight (the
// caller then waits on the latch instead of burning a second run). A run
// aborted by cancellation is evicted so the next request retries; a waiter
// whose own context is still live retries immediately.
func (l *latch[K, V]) get(ctx context.Context, key K, run func(context.Context) (V, error)) (V, bool, error) {
	for {
		l.mu.Lock()
		if l.m == nil {
			l.m = make(map[K]*latchEntry[V])
		}
		e, hit := l.m[key]
		if !hit {
			e = &latchEntry[V]{done: make(chan struct{})}
			l.m[key] = e
		}
		l.mu.Unlock()

		if !hit {
			e.val, e.err = run(ctx)
			if e.err != nil && errors.Is(e.err, lowutil.ErrCanceled) {
				l.mu.Lock()
				if l.m[key] == e {
					delete(l.m, key)
				}
				l.mu.Unlock()
			}
			close(e.done)
			return e.val, false, e.err
		}

		select {
		case <-e.done:
			if e.err != nil && errors.Is(e.err, lowutil.ErrCanceled) && ctx.Err() == nil {
				continue // the computing request was canceled, not this one
			}
			return e.val, true, e.err
		case <-ctx.Done():
			var zero V
			return zero, true, fmt.Errorf("%w: %w", lowutil.ErrCanceled, ctx.Err())
		}
	}
}

// len reports how many entries the latch holds.
func (l *latch[K, V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// sessionCache is a mutex-guarded LRU of compiled sessions.
type sessionCache struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

func newSessionCache(max int) *sessionCache {
	if max <= 0 {
		max = 64
	}
	return &sessionCache{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

// get returns the session for id, refreshing its LRU position.
func (c *sessionCache) get(id string) (*Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[id]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Session), true
}

// add inserts sess unless a session with the same ID exists (then the
// existing one wins — the ID is content-addressed, so they are equal).
// It reports whether an insert happened and how many sessions were evicted.
func (c *sessionCache) add(sess *Session) (*Session, bool, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sess.ID]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*Session), false, 0
	}
	c.m[sess.ID] = c.lru.PushFront(sess)
	evicted := 0
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*Session).ID)
		evicted++
	}
	return sess, true, evicted
}

// len returns the number of live sessions.
func (c *sessionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
