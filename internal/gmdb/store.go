// Package gmdb implements the GMDB distributed in-memory database of the
// paper's §III: a partitioned tree-object store where each partition is
// owned by a single fiber (a dedicated goroutine consuming a request
// queue — the lock-free, core-affine execution model of [17] the paper
// cites), with single-object transactions, pub/sub change notification,
// client-side caches with delta synchronization, asynchronous periodic
// flush (durability traded for latency), and online schema evolution via
// internal/gmdb/schema.
package gmdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gmdb/schema"
	"repro/internal/transport"
	"repro/internal/types"
)

// timeNow is the statement clock for the SQL surface (var for tests).
var timeNow = time.Now

// ErrNotFound is returned by Get/Update/Delete for missing keys.
var ErrNotFound = errors.New("gmdb: key not found")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("gmdb: store is closed")

// Config sizes the store.
type Config struct {
	// Partitions is the number of fiber-owned shards (default 4). The
	// paper dedicates one fiber per physical core.
	Partitions int
	// FlushInterval enables asynchronous periodic checkpointing to
	// FlushTarget when > 0.
	FlushInterval time.Duration
	// FlushTarget receives checkpoints (required when FlushInterval > 0).
	FlushTarget io.Writer
}

// Notification is one pub/sub event, already converted to the subscriber's
// schema version.
type Notification struct {
	Key     string
	Deleted bool
	// Object is the full converted object (nil on delete and for
	// delta-only notifications where the subscriber asked for deltas).
	Object *schema.Object
	// Delta is the converted delta when the change arrived as one.
	Delta *schema.Delta
}

// Subscription receives change notifications for one key.
type Subscription struct {
	C     <-chan Notification
	id    int64
	key   string
	store *Store
}

// Endpoint returns the subscriber's end of the store's fabric.
func (sub *Subscription) Endpoint() transport.Endpoint { return transport.Client(int(sub.id)) }

// Stats counts store activity.
type Stats struct {
	Puts, Gets, Deltas, Deletes int64
	// Conversions counts schema conversions performed on reads/writes.
	Conversions int64
	Flushes     int64
}

type subscriber struct {
	ep      transport.Endpoint
	version int
	ch      chan Notification
}

type entry struct {
	obj  *schema.Object // stored in obj.Version (one copy per the paper)
	subs []*subscriber
}

// partition is one fiber-owned shard. All access happens on the fiber
// goroutine; the request channel is the lock-free queue.
type partition struct {
	requests chan func(p *partition)
	objects  map[string]*entry
	done     chan struct{}
}

// Store is an embedded GMDB instance.
type Store struct {
	registry *schema.Registry
	parts    []*partition
	cfg      Config
	// fab carries every notification, store -> subscriber; its gmdb_pub
	// and gmdb_delta counters are the pub/sub bandwidth (E9).
	fab *transport.Fabric

	nextSubID atomic.Int64
	closed    atomic.Bool
	stopFlush chan struct{}
	flushWG   sync.WaitGroup

	puts, gets, deltas, deletes, conversions atomic.Int64
	flushes                                  atomic.Int64
}

// NewStore starts the partition fibers (and the flusher when configured).
func NewStore(registry *schema.Registry, cfg Config) *Store {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	s := &Store{registry: registry, cfg: cfg, fab: transport.New(transport.Config{}), stopFlush: make(chan struct{})}
	for i := 0; i < cfg.Partitions; i++ {
		p := &partition{
			requests: make(chan func(*partition), 256),
			objects:  make(map[string]*entry),
			done:     make(chan struct{}),
		}
		s.parts = append(s.parts, p)
		go p.run()
	}
	if cfg.FlushInterval > 0 && cfg.FlushTarget != nil {
		s.flushWG.Add(1)
		go s.flushLoop()
	}
	return s
}

// Fabric returns the fabric the store's notifications travel on: read its
// gmdb_pub / gmdb_delta counters, or inject faults and partitions between
// Endpoint and a Subscription's Endpoint.
func (s *Store) Fabric() *transport.Fabric { return s.fab }

// Endpoint returns the store's end of its fabric, where every notification
// leaves from.
func (s *Store) Endpoint() transport.Endpoint { return transport.DN(0) }

// run is the fiber loop: it owns the partition's data exclusively, so no
// locks are taken on the data path.
func (p *partition) run() {
	for fn := range p.requests {
		fn(p)
	}
	close(p.done)
}

// Close stops the fibers and flusher. Outstanding subscriptions are closed.
func (s *Store) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopFlush)
	s.flushWG.Wait()
	for _, p := range s.parts {
		p.do(func(p *partition) {
			for _, e := range p.objects {
				for _, sub := range e.subs {
					close(sub.ch)
				}
				e.subs = nil
			}
		})
		close(p.requests)
		<-p.done
	}
}

func (s *Store) partitionFor(key string) *partition {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.parts[int(h.Sum32())%len(s.parts)]
}

// exec runs fn on the key's fiber, waits for completion and returns fn's
// error.
func (s *Store) exec(key string, fn func(p *partition) error) error {
	if s.closed.Load() {
		return ErrClosed
	}
	var err error
	s.partitionFor(key).do(func(p *partition) { err = fn(p) })
	return err
}

// live returns key's entry if it holds an object.
func (p *partition) live(key string) (*entry, error) {
	if e, ok := p.objects[key]; ok && e.obj != nil {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// entry returns key's entry, creating an empty one if there is none.
func (p *partition) entry(key string) *entry {
	e, ok := p.objects[key]
	if !ok {
		e = &entry{}
		p.objects[key] = e
	}
	return e
}

// do runs fn on the partition's fiber and waits for completion; a caller
// visiting every partition calls it on each in turn.
func (p *partition) do(fn func(p *partition)) {
	done := make(chan struct{})
	p.requests <- func(p *partition) {
		defer close(done)
		fn(p)
	}
	<-done
}

// convertPath converts an object across versions stepwise through adjacent
// registered versions.
func (s *Store) convertPath(obj *schema.Object, to int) (*schema.Object, error) {
	return convertSteps(s, obj.Type, obj.Version, to, obj, schema.Convert)
}

// convertDeltaPath converts a delta stepwise.
func (s *Store) convertDeltaPath(d *schema.Delta, to int) (*schema.Delta, error) {
	return convertSteps(s, d.Type, d.Version, to, d, schema.ConvertDelta)
}

// convertSteps takes v of type typ from version `from` to `to` one
// adjacent registered version at a time.
func convertSteps[T any](s *Store, typ string, from, to int, v T, step func(T, *schema.Schema, *schema.Schema) (T, error)) (T, error) {
	if from == to {
		return v, nil
	}
	path, err := s.registry.ConversionPath(typ, from, to)
	if err != nil {
		return v, err
	}
	for i := 0; i+1 < len(path); i++ {
		src, _ := s.registry.Get(typ, path[i])
		dst, _ := s.registry.Get(typ, path[i+1])
		if v, err = step(v, src, dst); err != nil {
			return v, err
		}
		s.conversions.Add(1)
	}
	return v, nil
}

// Put stores (or replaces) an object under key. The stored copy keeps the
// writer's schema version; readers at other versions convert on the fly
// (paper Fig 9/10). An object the codec could not encode is refused: stored,
// it would fail every later checkpoint and notification.
func (s *Store) Put(key string, obj *schema.Object) error {
	if err := s.check(obj); err != nil {
		return err
	}
	s.puts.Add(1)
	stored := obj.Clone()
	return s.exec(key, func(p *partition) error {
		e := p.entry(key)
		e.obj = stored
		return s.notifyLocked(e, key, stored, nil, false)
	})
}

// check refuses an object of an unregistered schema, or one its schema's
// codec could not encode.
func (s *Store) check(obj *schema.Object) error {
	sc, ok := s.registry.Get(obj.Type, obj.Version)
	if !ok {
		return fmt.Errorf("gmdb: schema %s v%d is not registered", obj.Type, obj.Version)
	}
	if err := schema.CheckObject(obj, sc); err != nil {
		return fmt.Errorf("gmdb: %w", err)
	}
	return nil
}

// Get returns a copy of the object converted to the requested schema
// version; the conversion runs on the fiber, which owns the stored copy.
func (s *Store) Get(key string, version int) (*schema.Object, error) {
	s.gets.Add(1)
	var obj *schema.Object
	err := s.exec(key, func(p *partition) error {
		e, err := p.live(key)
		if err != nil {
			return err
		}
		if obj, err = s.convertPath(e.obj, version); obj == e.obj {
			obj = obj.Clone() // callers must not alias stored state
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return obj, nil
}

// ApplyDelta applies a partial update; the delta converts to the stored
// object's version before applying, and subscribers receive it converted
// to their own versions (delta sync, §III-B).
func (s *Store) ApplyDelta(key string, d *schema.Delta) error {
	sc, ok := s.registry.Get(d.Type, d.Version)
	if !ok {
		return fmt.Errorf("gmdb: schema %s v%d is not registered", d.Type, d.Version)
	}
	if err := schema.CheckDelta(d, sc); err != nil {
		return fmt.Errorf("gmdb: %w", err)
	}
	s.deltas.Add(1)
	return s.exec(key, func(p *partition) error {
		e, err := p.live(key)
		if err != nil {
			return err
		}
		converted, err := s.convertDeltaPath(d, e.obj.Version)
		if err != nil {
			return err
		}
		sc, _ := s.registry.Get(e.obj.Type, e.obj.Version)
		if err := schema.Apply(e.obj, converted, sc); err != nil {
			return err
		}
		return s.notifyLocked(e, key, e.obj, d, false)
	})
}

// Update runs a single-object transaction: fn mutates the object converted
// to `version`, and the result is stored back (the stored copy adopts
// `version`). The whole read-modify-write is atomic on the fiber.
func (s *Store) Update(key string, version int, fn func(obj *schema.Object) error) error {
	return s.exec(key, func(p *partition) error {
		e, err := p.live(key)
		if err != nil {
			return err
		}
		converted, err := s.convertPath(e.obj, version)
		if err != nil {
			return err
		}
		if converted == e.obj {
			converted = e.obj.Clone()
		}
		if err := fn(converted); err != nil {
			return err
		}
		if err := s.check(converted); err != nil {
			return err
		}
		e.obj = converted
		return s.notifyLocked(e, key, e.obj, nil, false)
	})
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	s.deletes.Add(1)
	return s.exec(key, func(p *partition) error {
		e, err := p.live(key)
		if err != nil {
			return err
		}
		e.obj = nil
		err = s.notifyLocked(e, key, nil, nil, true)
		if len(e.subs) == 0 {
			delete(p.objects, key)
		}
		return err
	})
}

// notifyLocked fans a change out to the entry's subscribers, converting
// per subscriber version; each notification is one message on the store's
// fabric carrying the change's encoding, and one the fabric loses is not
// delivered. What a subscriber receives is decoded from those bytes, so it
// shares nothing with the store. Runs on the fiber.
func (s *Store) notifyLocked(e *entry, key string, obj *schema.Object, d *schema.Delta, deleted bool) error {
	for _, sub := range e.subs {
		n := Notification{Key: key, Deleted: deleted}
		t, payload, err := transport.GMDBPub, []byte(nil), error(nil)
		switch {
		case deleted:
		case d != nil:
			t = transport.GMDBDelta
			var cd *schema.Delta
			if cd, err = s.convertDeltaPath(d, sub.version); err == nil {
				sc, _ := s.registry.Get(cd.Type, cd.Version) // conversion ends at a registered version
				if payload, err = schema.EncodeDelta(cd, sc); err == nil {
					n.Delta, err = schema.DecodeDelta(payload, sc)
				}
			}
		default:
			var co *schema.Object
			if co, err = s.convertPath(obj, sub.version); err == nil {
				sc, _ := s.registry.Get(co.Type, co.Version)
				if payload, err = schema.EncodeObject(co, sc); err == nil {
					n.Object, err = schema.DecodeObject(payload, sc)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("gmdb: notify %q at v%d: %w", key, sub.version, err)
		}
		if _, err := s.fab.Post(s.Endpoint(), sub.ep, t, len(payload)); err == nil {
			trySend(sub.ch, n)
		}
	}
	return nil
}

// trySend drops notifications for slow subscribers instead of stalling the
// fiber (carrier-grade latency beats completeness; the client re-reads on
// gaps).
func trySend(ch chan Notification, n Notification) {
	select {
	case ch <- n:
	default:
	}
}

// Subscribe registers for changes of key, with notifications converted to
// the given schema version.
func (s *Store) Subscribe(key string, version int, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan Notification, buffer)
	id := s.nextSubID.Add(1)
	err := s.exec(key, func(p *partition) error {
		e := p.entry(key)
		e.subs = append(e.subs, &subscriber{ep: transport.Client(int(id)), version: version, ch: ch})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Subscription{C: ch, id: id, key: key, store: s}, nil
}

// Cancel removes the subscription and closes its channel.
func (sub *Subscription) Cancel() {
	sub.store.exec(sub.key, func(p *partition) error {
		e, ok := p.objects[sub.key]
		if !ok {
			return nil
		}
		for i, sb := range e.subs {
			if sb.ep == sub.Endpoint() {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				close(sb.ch)
				break
			}
		}
		if e.obj == nil && len(e.subs) == 0 {
			delete(p.objects, sub.key)
		}
		return nil
	})
}

// Len counts stored objects.
func (s *Store) Len() int {
	total := 0
	for _, p := range s.parts {
		p.do(func(p *partition) {
			for _, e := range p.objects {
				if e.obj != nil {
					total++
				}
			}
		})
	}
	return total
}

// Stats returns cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts: s.puts.Load(), Gets: s.gets.Load(), Deltas: s.deltas.Load(),
		Deletes: s.deletes.Load(), Conversions: s.conversions.Load(),
		Flushes: s.flushes.Load(),
	}
}

// ---------------------------------------------------------------------------
// Asynchronous flush (durability trade-off, §III-A)
// ---------------------------------------------------------------------------

func (s *Store) flushLoop() {
	defer s.flushWG.Done()
	ticker := time.NewTicker(s.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// A failed flush is retried at the next tick; in-memory
			// service is never blocked on it (the GMDB trade-off).
			_ = s.Checkpoint(s.cfg.FlushTarget)
		case <-s.stopFlush:
			return
		}
	}
}

// Checkpoint writes a snapshot of all objects in key order: per object,
// its key then its encoding, each behind its u32 length. Objects are
// encoded on their fibers, each in the version it is stored in.
func (s *Store) Checkpoint(w io.Writer) error {
	if s.closed.Load() {
		return ErrClosed
	}
	encoded := map[string][]byte{}
	var keys []string
	var err error
	for _, p := range s.parts {
		p.do(func(p *partition) {
			for key, e := range p.objects {
				if e.obj != nil && err == nil {
					sc, _ := s.registry.Get(e.obj.Type, e.obj.Version) // stored versions are registered
					keys = append(keys, key)
					if encoded[key], err = schema.EncodeObject(e.obj, sc); err != nil {
						err = fmt.Errorf("gmdb: checkpoint %q: %w", key, err)
					}
				}
			}
		})
	}
	if err != nil {
		return err
	}
	slices.Sort(keys)
	var b []byte
	for _, key := range keys {
		b = types.AppendBytes(types.AppendString(b, key), encoded[key])
	}
	if _, err = w.Write(b); err == nil {
		s.flushes.Add(1)
	}
	return err
}

// LoadCheckpoint restores objects from a snapshot stream.
func (s *Store) LoadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for rd := types.NewReader(data); rd.Len() > 0; {
		key, b := rd.Str(), rd.Bytes()
		if rd.Err() != nil {
			return fmt.Errorf("gmdb: load: %w", rd.Err())
		}
		obj, err := s.registry.DecodeObject(b)
		if err != nil {
			return fmt.Errorf("gmdb: load %q: %w", key, err)
		}
		if err := s.Put(key, obj); err != nil {
			return err
		}
	}
	return nil
}
