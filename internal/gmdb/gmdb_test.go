package gmdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gmdb/schema"
	"repro/internal/mme"
	"repro/internal/transport"
	"repro/internal/types"
)

func newMMEStore(t *testing.T) (*Store, *schema.Registry) {
	t.Helper()
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	s := NewStore(reg, Config{Partitions: 2})
	t.Cleanup(s.Close)
	return s, reg
}

func session(t *testing.T, version int, id int64) *schema.Object {
	t.Helper()
	obj, err := mme.GenerateSession(rand.New(rand.NewSource(id)), version, id)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestPutGetSameVersion(t *testing.T) {
	s, _ := newMMEStore(t)
	obj := session(t, 5, 1)
	if err := s.Put("k1", obj); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 5 || got.Root.Values[0].Scalar.Str() != obj.Root.Values[0].Scalar.Str() {
		t.Errorf("got = v%d imsi %v", got.Version, got.Root.Values[0].Scalar)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
	if _, err := s.Get("missing", 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestUpgradeAndDowngradeReads(t *testing.T) {
	s, reg := newMMEStore(t)
	// Writer at V5; readers at V6 (upgrade) and V3 (downgrade).
	obj := session(t, 5, 42)
	s.Put("sess", obj)

	up, err := s.Get("sess", 6)
	if err != nil {
		t.Fatal(err)
	}
	sc6, _ := reg.Get(mme.SessionType, 6)
	if i := sc6.Root.FieldIndex("slice_id"); up.Root.Values[i].Scalar.IsNull() {
		t.Error("upgraded read must fill the V6 default")
	}

	down, err := s.Get("sess", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc3, _ := reg.Get(mme.SessionType, 3)
	if len(down.Root.Values) != len(sc3.Root.Fields) {
		t.Errorf("downgrade kept %d fields, want %d", len(down.Root.Values), len(sc3.Root.Fields))
	}
	// Multi-hop conversion (V5 -> V8) works via the stepwise path.
	far, err := s.Get("sess", 8)
	if err != nil {
		t.Fatal(err)
	}
	if far.Version != 8 {
		t.Errorf("far version = %d", far.Version)
	}
	// Conversions were counted.
	if s.Stats().Conversions == 0 {
		t.Error("conversions not counted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := newMMEStore(t)
	s.Put("k", session(t, 5, 1))
	a, _ := s.Get("k", 5)
	a.Root.Values[1].Scalar = types.NewString("mutated")
	b, _ := s.Get("k", 5)
	if b.Root.Values[1].Scalar.Str() == "mutated" {
		t.Error("Get must not alias stored state")
	}
}

func TestApplyDeltaAcrossVersions(t *testing.T) {
	s, reg := newMMEStore(t)
	obj := session(t, 5, 7)
	imsi := obj.Root.Values[0].Scalar.Str()
	s.Put("k", obj)

	// A V8 client sends a delta; the stored object is V5. The delta's
	// shared-field patches must apply.
	d, err := mme.SessionDelta(rand.New(rand.NewSource(1)), 8, imsi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDelta("k", d); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("k", 5)
	sc5, _ := reg.Get(mme.SessionType, 5)
	if got.Root.Values[sc5.Root.FieldIndex("state")].Scalar.Str() != "CONNECTED" {
		t.Error("delta state patch lost in cross-version apply")
	}
	if err := s.ApplyDelta("missing", d); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestUpdateSingleObjectTxn(t *testing.T) {
	s, reg := newMMEStore(t)
	s.Put("k", session(t, 5, 3))
	sc6, _ := reg.Get(mme.SessionType, 6)
	stateIdx := sc6.Root.FieldIndex("state")
	err := s.Update("k", 6, func(obj *schema.Object) error {
		obj.Root.Values[stateIdx] = schema.Value{Scalar: types.NewString("DETACHED")}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Store now holds the object at V6 (writer's version).
	got, _ := s.Get("k", 6)
	if got.Root.Values[stateIdx].Scalar.Str() != "DETACHED" {
		t.Error("update lost")
	}
	// Failing update leaves the object unchanged.
	sentinel := errors.New("nope")
	err = s.Update("k", 6, func(obj *schema.Object) error {
		obj.Root.Values[stateIdx] = schema.Value{Scalar: types.NewString("GARBAGE")}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	got, _ = s.Get("k", 6)
	if got.Root.Values[stateIdx].Scalar.Str() != "DETACHED" {
		t.Error("failed update must not apply")
	}
}

func TestConcurrentUpdatesAreAtomic(t *testing.T) {
	// 4 writers increment the same counter 100 times each through Update;
	// the fiber serializes them, so no increments are lost.
	s, reg := newMMEStore(t)
	s.Put("ctr", session(t, 5, 9))
	sc5, _ := reg.Get(mme.SessionType, 5)
	tacIdx := sc5.Root.FieldIndex("tac")
	s.Update("ctr", 5, func(o *schema.Object) error {
		o.Root.Values[tacIdx] = schema.Value{Scalar: types.NewInt(0)}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Update("ctr", 5, func(o *schema.Object) error {
					cur := o.Root.Values[tacIdx].Scalar.Int()
					o.Root.Values[tacIdx] = schema.Value{Scalar: types.NewInt(cur + 1)}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	got, _ := s.Get("ctr", 5)
	if got.Root.Values[tacIdx].Scalar.Int() != 400 {
		t.Errorf("counter = %v, want 400", got.Root.Values[tacIdx].Scalar)
	}
}

func TestDelete(t *testing.T) {
	s, _ := newMMEStore(t)
	s.Put("k", session(t, 5, 1))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k", 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSubscriptionDeliversConverted(t *testing.T) {
	s, reg := newMMEStore(t)
	sub, err := s.Subscribe("k", 6, 8) // V6 subscriber
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	// V5 writer puts; subscriber gets a V6 full object.
	s.Put("k", session(t, 5, 11))
	n := recvNotification(t, sub.C)
	if n.Object == nil || n.Object.Version != 6 {
		t.Fatalf("notification = %+v", n)
	}
	sc6, _ := reg.Get(mme.SessionType, 6)
	if i := sc6.Root.FieldIndex("nr_restriction"); n.Object.Root.Values[i].Scalar.IsNull() {
		t.Error("converted notification missing V6 defaults")
	}

	// Delta update: subscriber receives the delta converted to V6.
	imsi := n.Object.Root.Values[0].Scalar.Str()
	d, _ := mme.SessionDelta(rand.New(rand.NewSource(2)), 5, imsi, 0)
	s.ApplyDelta("k", d)
	n = recvNotification(t, sub.C)
	if n.Delta == nil || n.Delta.Version != 6 {
		t.Fatalf("delta notification = %+v", n)
	}

	// Delete notification.
	s.Delete("k")
	n = recvNotification(t, sub.C)
	if !n.Deleted {
		t.Fatalf("delete notification = %+v", n)
	}
	st := s.Fabric().Stats()
	full, delta := st.Get(transport.GMDBPub).Bytes, st.Get(transport.GMDBDelta).Bytes
	if full == 0 || delta == 0 {
		t.Errorf("sync byte counters: full %d, delta %d", full, delta)
	}
	if delta >= full {
		t.Errorf("delta bytes (%d) should be far below full-object bytes (%d)", delta, full)
	}
}

// TestDroppedDeltaNeverReachesSubscriber: a notification the fabric loses
// is counted as dropped and never appears on Subscription.C; the next one
// arrives.
func TestDroppedDeltaNeverReachesSubscriber(t *testing.T) {
	s, _ := newMMEStore(t)
	sub, err := s.Subscribe("k", 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	s.Put("k", session(t, 5, 11))
	n := recvNotification(t, sub.C)
	imsi := n.Object.Root.Values[0].Scalar.Str()

	s.Fabric().InjectFault(s.Endpoint(), sub.Endpoint(), transport.Fault{
		Types: []transport.MsgType{transport.GMDBDelta}, Drop: true, Count: 1,
	})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2; i++ {
		d, _ := mme.SessionDelta(rng, 5, imsi, 0)
		if err := s.ApplyDelta("k", d); err != nil {
			t.Fatal(err)
		}
	}
	// Notifications are posted on the fiber before ApplyDelta returns, so
	// exactly the second delta is waiting.
	if n := recvNotification(t, sub.C); n.Delta == nil {
		t.Fatalf("notification = %+v, want the second delta", n)
	}
	select {
	case n := <-sub.C:
		t.Errorf("the dropped delta was delivered: %+v", n)
	default:
	}
	st := s.Fabric().Stats().Get(transport.GMDBDelta)
	if st.Dropped != 1 || st.Count != 1 {
		t.Errorf("gmdb_delta counters = %+v, want 1 delivered and 1 dropped", st)
	}
}

func recvNotification(t *testing.T, ch <-chan Notification) Notification {
	t.Helper()
	select {
	case n := <-ch:
		return n
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for notification")
		return Notification{}
	}
}

func TestClientCacheAndWatch(t *testing.T) {
	s, _ := newMMEStore(t)
	writer, err := s.NewClient(mme.SessionType, 5)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := s.NewClient(mme.SessionType, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	defer reader.Close()

	obj := session(t, 5, 21)
	if err := writer.Put("k", obj); err != nil {
		t.Fatal(err)
	}
	// First read misses, second hits the cache.
	if _, err := reader.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Get("k"); err != nil {
		t.Fatal(err)
	}
	hits, misses := reader.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses", hits, misses)
	}

	// Watch: a new put by the writer lands in the reader's cache, already
	// upgraded to V6 (Fig 10's scenario).
	if err := reader.Watch("k"); err != nil {
		t.Fatal(err)
	}
	obj2 := session(t, 5, 22)
	writer.Put("k", obj2)
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, err := reader.Get("k")
		if err == nil && got.Root.Values[0].Scalar.Str() == obj2.Root.Values[0].Scalar.Str() {
			if got.Version != 6 {
				t.Fatalf("cached version = %d, want 6", got.Version)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch did not refresh the cache")
		}
		time.Sleep(time.Millisecond)
	}
	// Version guard on writes.
	if err := reader.Put("k", obj2); err == nil {
		t.Error("client put with mismatched version must fail")
	}
	if _, err := s.NewClient(mme.SessionType, 99); err == nil {
		t.Error("unregistered version must fail")
	}
}

// TestCheckpointAndRecovery: every recovered object equals the one put,
// field by field and kind by kind, in the version it was stored in —
// DOUBLE 3.0 and BIGINT 2^53+1 included.
func TestCheckpointAndRecovery(t *testing.T) {
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	s := NewStore(reg, Config{Partitions: 2})
	put := map[string]*schema.Object{}
	for i := int64(0); i < 10; i++ {
		obj, _ := mme.GenerateSession(rand.New(rand.NewSource(i)), mme.Versions[i%5], i)
		sc, _ := reg.Get(mme.SessionType, obj.Version)
		obj.Root.Values[sc.Root.FieldIndex("tac")].Scalar = types.NewFloat(float64(i))
		obj.Root.Values[sc.Root.FieldIndex("cell_id")].Scalar = types.NewInt(1<<53 + i)
		key := fmt.Sprintf("k%d", i)
		put[key] = obj
		s.Put(key, obj)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := NewStore(reg, Config{Partitions: 4})
	defer s2.Close()
	if err := s2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(put) {
		t.Errorf("recovered %d objects, want %d", s2.Len(), len(put))
	}
	for key, want := range put {
		got, err := s2.Get(key, want.Version)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffRecords(want.Root, got.Root, key); diff != "" {
			t.Error(diff)
		}
	}
}

// TestStoreRefusesWhatItCannotEncode: a TEXT put into a numeric field, by
// Put, ApplyDelta or Update, is refused on entry with the codec's error, and
// the store keeps what it held — so a following Checkpoint still encodes
// every object.
func TestStoreRefusesWhatItCannotEncode(t *testing.T) {
	s, reg := newMMEStore(t)
	sc, _ := reg.Get(mme.SessionType, 5)
	tac := sc.Root.FieldIndex("tac")
	text := schema.Value{Scalar: types.NewString("not a number")}
	good := session(t, 5, 1)
	if err := s.Put("good", good); err != nil {
		t.Fatal(err)
	}
	imsi := good.Root.Values[sc.Root.FieldIndex("imsi")].Scalar

	bad := session(t, 5, 2)
	bad.Root.Values[tac] = text
	delta := &schema.Delta{Type: mme.SessionType, Version: 5, Key: imsi,
		Patches: []schema.Patch{{Path: []schema.PathElem{{Field: tac, Index: -1}}, Value: text}}}
	for name, write := range map[string]func() error{
		"put":   func() error { return s.Put("bad", bad) },
		"delta": func() error { return s.ApplyDelta("good", delta) },
		"update": func() error {
			return s.Update("good", 5, func(obj *schema.Object) error {
				obj.Root.Values[tac] = text
				return nil
			})
		},
	} {
		if err := write(); err == nil || !strings.Contains(err.Error(), `field "tac" cannot hold TEXT`) {
			t.Errorf("%s of a TEXT tac: err = %v, want the codec's kind error", name, err)
		}
		if err := s.Checkpoint(io.Discard); err != nil {
			t.Errorf("checkpoint after a refused %s: %v", name, err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d objects, want 1", s.Len())
	}
	got, err := s.Get("good", 5)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffRecords(good.Root, got.Root, "good"); diff != "" {
		t.Error(diff)
	}
}

// diffRecords describes the first value at which two records differ in
// kind or content, or returns "".
func diffRecords(want, got *schema.Record, at string) string {
	if len(want.Values) != len(got.Values) {
		return fmt.Sprintf("%s: %d values, want %d", at, len(got.Values), len(want.Values))
	}
	for i, w := range want.Values {
		g := got.Values[i]
		if w.Scalar != g.Scalar {
			return fmt.Sprintf("%s[%d]: %s %v, want %s %v", at, i, g.Scalar.Kind(), g.Scalar, w.Scalar.Kind(), w.Scalar)
		}
		if len(w.Records) != len(g.Records) {
			return fmt.Sprintf("%s[%d]: %d records, want %d", at, i, len(g.Records), len(w.Records))
		}
		for j := range w.Records {
			if diff := diffRecords(w.Records[j], g.Records[j], fmt.Sprintf("%s[%d][%d]", at, i, j)); diff != "" {
				return diff
			}
		}
	}
	return ""
}

func TestAsyncFlushLoop(t *testing.T) {
	reg := schema.NewRegistry()
	mme.RegisterAll(reg)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewStore(reg, Config{Partitions: 1, FlushInterval: 10 * time.Millisecond, FlushTarget: w})
	obj, _ := mme.GenerateSession(rand.New(rand.NewSource(1)), 5, 1)
	s.Put("k", obj)
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if buf.Len() == 0 {
		t.Error("flush wrote nothing")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestClosedStoreErrors(t *testing.T) {
	s, _ := newMMEStore(t)
	obj := session(t, 5, 1)
	s.Close()
	if err := s.Put("k", obj); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Get("k", 5); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}

func TestMMESessionSizeBand(t *testing.T) {
	// Paper: "typical volume of a single user session data is about
	// 5-10KB".
	reg := schema.NewRegistry()
	mme.RegisterAll(reg)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 20; i++ {
		obj, err := mme.GenerateSession(rng, 5, i)
		if err != nil {
			t.Fatal(err)
		}
		sc, _ := reg.Get(mme.SessionType, 5)
		b, err := schema.EncodeObject(obj, sc)
		if err != nil {
			t.Fatal(err)
		}
		if size := len(b); size < 4000 || size > 12000 {
			t.Errorf("session %d encodes to %d bytes, want ~5-10KB", i, size)
		}
	}
}

func TestClientDeltaAndUnwatch(t *testing.T) {
	s, reg := newMMEStore(t)
	writer, _ := s.NewClient(mme.SessionType, 5)
	defer writer.Close()
	if writer.Version() != 5 {
		t.Error("version accessor")
	}
	obj := session(t, 5, 31)
	imsi := obj.Root.Values[0].Scalar.Str()
	writer.Put("k", obj)
	writer.Watch("k")
	writer.Watch("k") // duplicate watch is a no-op

	// Client-side delta keeps the local cache in sync without a re-read.
	d, _ := mme.SessionDelta(rand.New(rand.NewSource(4)), 5, imsi, 0)
	if err := writer.ApplyDelta("k", d); err != nil {
		t.Fatal(err)
	}
	got, _ := writer.Get("k")
	sc5, _ := reg.Get(mme.SessionType, 5)
	if got.Root.Values[sc5.Root.FieldIndex("state")].Scalar.Str() != "CONNECTED" {
		t.Error("client cache missed its own delta")
	}
	if !writer.Cached("k") {
		t.Error("Cached() broken")
	}
	// Version-mismatched delta is rejected client-side.
	d8, _ := mme.SessionDelta(rand.New(rand.NewSource(4)), 8, imsi, 0)
	if err := writer.ApplyDelta("k", d8); err == nil {
		t.Error("client delta with wrong version must fail")
	}
	writer.Unwatch("k")
	writer.Unwatch("k") // idempotent
}

func TestClientWatchDeleteEvictsCache(t *testing.T) {
	s, _ := newMMEStore(t)
	a, _ := s.NewClient(mme.SessionType, 5)
	b, _ := s.NewClient(mme.SessionType, 5)
	defer a.Close()
	defer b.Close()
	a.Put("k", session(t, 5, 1))
	b.Get("k")
	b.Watch("k")
	s.Delete("k")
	deadline := time.Now().Add(2 * time.Second)
	for b.Cached("k") {
		if time.Now().After(deadline) {
			t.Fatal("delete notification never evicted the cache")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeltaRecordsAreNotShared: a record a delta inserts is copied by
// everyone who applies it. Two clients watch a key, one appends a bearer
// by delta and patches it 50 times: the store, the writer's cache and the
// other client's cache each hold their own record (under -race, shared
// ones race between the two watch pumps), and the record the writer still
// holds is not the stored one.
func TestDeltaRecordsAreNotShared(t *testing.T) {
	s, reg := newMMEStore(t)
	a, _ := s.NewClient(mme.SessionType, 5)
	b, _ := s.NewClient(mme.SessionType, 5)
	defer a.Close()
	defer b.Close()
	obj := session(t, 5, 1)
	if err := a.Put("k", obj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{a, b} {
		if _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
		if err := c.Watch("k"); err != nil {
			t.Fatal(err)
		}
	}
	sc, _ := reg.Get(mme.SessionType, 5)
	bi := sc.Root.FieldIndex("bearers")
	bearer := sc.Root.Fields[bi].Record
	up, n := bearer.FieldIndex("bytes_up"), len(obj.Root.Values[bi].Records)
	delta := func(path []schema.PathElem, v schema.Value) *schema.Delta {
		return &schema.Delta{Type: mme.SessionType, Version: 5, Key: obj.Root.Values[0].Scalar,
			Patches: []schema.Patch{{Path: path, Value: v}}}
	}
	rec := schema.NewRecord(bearer)
	if err := a.ApplyDelta("k", delta([]schema.PathElem{{Field: bi, Index: n}}, schema.Value{Records: []*schema.Record{rec}})); err != nil {
		t.Fatal(err)
	}
	rec.Values[up] = schema.Value{Scalar: types.NewInt(-7)}
	bytesUp := func(o *schema.Object) int64 {
		if bearers := o.Root.Values[bi].Records; len(bearers) > n {
			return bearers[n].Values[up].Scalar.Int()
		}
		return -1 // a watch pump has not applied the append yet
	}
	if got, _ := s.Get("k", 5); bytesUp(got) == -7 {
		t.Fatal("the store holds the record the writer's delta carried")
	}
	const patches = 50
	for i := int64(1); i <= patches; i++ {
		if err := a.ApplyDelta("k", delta([]schema.PathElem{{Field: bi, Index: n}, {Field: up, Index: -1}}, schema.Value{Scalar: types.NewInt(i)})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, c := range []*Client{a, b} {
		for {
			got, err := c.Get("k")
			if err == nil && bytesUp(got) == patches {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("a cache never saw the last patch: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got, _ := s.Get("k", 5); bytesUp(got) != patches {
		t.Errorf("stored bytes_up = %d, want %d", bytesUp(got), patches)
	}
}

// TestGetWhileDeltasApply: Get converts and copies the stored object on its
// fiber, so a reader never sees a delta being applied (under -race, a Get
// that copied after leaving the fiber raced with ApplyDelta's writes).
func TestGetWhileDeltasApply(t *testing.T) {
	s, _ := newMMEStore(t)
	obj := session(t, 5, 1)
	if err := s.Put("k", obj); err != nil {
		t.Fatal(err)
	}
	imsi := obj.Root.Values[0].Scalar.Str()
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			d, _ := mme.SessionDelta(rng, 5, imsi, 0)
			if err := s.ApplyDelta("k", d); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, version := range []int{5, 6, 3, 5} {
		for i := 0; i < 50; i++ {
			if _, err := s.Get("k", version); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
