package gmdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gmdb/schema"
)

// Client is a GMDB driver handle bound to one application schema version
// (paper Fig 9/10): it keeps a local data cache in its own version to
// reduce latency and can subscribe to future changes of cached objects,
// receiving them converted by the data node.
type Client struct {
	store   *Store
	typ     string
	version int

	mu    sync.Mutex
	cache map[string]*schema.Object
	subs  map[string]*Subscription
	wg    sync.WaitGroup

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// NewClient opens a client at the given schema version (which must be
// registered).
func (s *Store) NewClient(typ string, version int) (*Client, error) {
	if _, ok := s.registry.Get(typ, version); !ok {
		return nil, fmt.Errorf("gmdb: schema %s v%d is not registered", typ, version)
	}
	return &Client{
		store:   s,
		typ:     typ,
		version: version,
		cache:   make(map[string]*schema.Object),
		subs:    make(map[string]*Subscription),
	}, nil
}

// Version reports the client's schema version.
func (c *Client) Version() int { return c.version }

// Get returns the object in the client's schema version, serving from the
// local cache when possible. A cached object is cloned under the lock: the
// watch pump applies deltas to it in place.
func (c *Client) Get(key string) (*schema.Object, error) {
	c.mu.Lock()
	if obj, ok := c.cache[key]; ok {
		defer c.mu.Unlock()
		c.cacheHits.Add(1)
		return obj.Clone(), nil
	}
	c.mu.Unlock()
	c.cacheMisses.Add(1)
	obj, err := c.store.Get(key, c.version)
	if err != nil {
		return nil, err
	}
	out := obj.Clone()
	c.mu.Lock()
	c.cache[key] = obj
	c.mu.Unlock()
	return out, nil
}

// Put writes an object (stamped with the client's version) and caches it.
func (c *Client) Put(key string, obj *schema.Object) error {
	if obj.Version != c.version {
		return fmt.Errorf("gmdb: client is v%d but object is v%d", c.version, obj.Version)
	}
	if err := c.store.Put(key, obj); err != nil {
		return err
	}
	c.mu.Lock()
	c.cache[key] = obj.Clone()
	c.mu.Unlock()
	return nil
}

// ApplyDelta sends a partial update (delta sync) and applies it to the
// local cache copy, avoiding a full-object round trip.
func (c *Client) ApplyDelta(key string, d *schema.Delta) error {
	if d.Version != c.version {
		return fmt.Errorf("gmdb: client is v%d but delta is v%d", c.version, d.Version)
	}
	if err := c.store.ApplyDelta(key, d); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.cache[key]; ok {
		sc, _ := c.store.registry.Get(c.typ, c.version)
		if err := schema.Apply(cached, d, sc); err != nil {
			// Cache diverged; drop it and re-read lazily.
			delete(c.cache, key)
		}
	}
	return nil
}

// Watch subscribes to a key: changes stream into the local cache in the
// client's schema version until Close (or Unwatch).
func (c *Client) Watch(key string) error {
	c.mu.Lock()
	if _, dup := c.subs[key]; dup {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	sub, err := c.store.Subscribe(key, c.version, 64)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.subs[key] = sub
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for n := range sub.C {
			c.applyNotification(n)
		}
	}()
	return nil
}

func (c *Client) applyNotification(n Notification) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case n.Deleted:
		delete(c.cache, n.Key)
	case n.Object != nil:
		c.cache[n.Key] = n.Object
	case n.Delta != nil:
		cached, ok := c.cache[n.Key]
		if !ok {
			return // nothing cached; next Get re-reads
		}
		sc, _ := c.store.registry.Get(c.typ, c.version)
		if err := schema.Apply(cached, n.Delta, sc); err != nil {
			delete(c.cache, n.Key)
		}
	}
}

// Unwatch cancels the key's subscription.
func (c *Client) Unwatch(key string) {
	c.mu.Lock()
	sub, ok := c.subs[key]
	delete(c.subs, key)
	c.mu.Unlock()
	if ok {
		sub.Cancel()
	}
}

// Close cancels all subscriptions and waits for their pumps.
func (c *Client) Close() {
	c.mu.Lock()
	subs := make([]*Subscription, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.subs = map[string]*Subscription{}
	c.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
	c.wg.Wait()
}

// CacheStats reports local cache effectiveness.
func (c *Client) CacheStats() (hits, misses int64) {
	return c.cacheHits.Load(), c.cacheMisses.Load()
}

// Cached reports whether key is in the local cache (tests).
func (c *Client) Cached(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.cache[key]
	return ok
}
