package service

import (
	"context"
	"slices"
	"testing"

	"parcluster/internal/gen"
)

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	r := func(seed uint32) *ClusterResult { return &ClusterResult{Seeds: []uint32{seed}} }
	c.put("a", r(1))
	c.put("b", r(2))
	c.put("c", r(3)) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := c.get("b"); !ok || v.Seeds[0] != 2 {
		t.Fatalf("b = (%v, %v), want hit", v, ok)
	}
	// b is now most recent, so adding d evicts c.
	c.put("d", r(4))
	if _, ok := c.get("c"); ok {
		t.Fatal("c should have been evicted after b was refreshed")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("b should have survived")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", &ClusterResult{Size: 1})
	c.put("a", &ClusterResult{Size: 2})
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 after double put", c.len())
	}
	if v, _ := c.get("a"); v.Size != 2 {
		t.Fatalf("Size = %d, want the refreshed value 2", v.Size)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRUCache(0) // nil cache
	c.put("a", &ClusterResult{})
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache should never hit")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache should report len 0")
	}
	if c.bytes() != 0 {
		t.Fatal("disabled cache should report 0 bytes")
	}
}

// TestLRUByteAccounting pins the cache_bytes bookkeeping across insert,
// refresh and eviction: the running total always equals the sum of the
// retained entries' footprints and never drifts.
func TestLRUByteAccounting(t *testing.T) {
	c := newLRUCache(2)
	mk := func(members int) *ClusterResult {
		return &ClusterResult{Seeds: []uint32{1}, Members: make([]uint32, members)}
	}
	sum := func(keys map[string]*ClusterResult) int64 {
		var n int64
		for k, v := range keys {
			n += resultFootprint(k, v)
		}
		return n
	}
	c.put("a", mk(100))
	c.put("b", mk(200))
	if got, want := c.bytes(), sum(map[string]*ClusterResult{"a": mk(100), "b": mk(200)}); got != want {
		t.Fatalf("bytes after inserts = %d, want %d", got, want)
	}
	// Refresh a with a bigger value: delta applied, no double count.
	c.put("a", mk(500))
	if got, want := c.bytes(), sum(map[string]*ClusterResult{"a": mk(500), "b": mk(200)}); got != want {
		t.Fatalf("bytes after refresh = %d, want %d", got, want)
	}
	// Insert c: evicts b (a was refreshed more recently).
	c.put("c", mk(50))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if got, want := c.bytes(), sum(map[string]*ClusterResult{"a": mk(500), "c": mk(50)}); got != want {
		t.Fatalf("bytes after eviction = %d, want %d", got, want)
	}
}

// TestDetachResult pins the one copy: the detached result shares no member
// memory with the original — a head of the sweep order, whose tail it must
// not keep alive — and is exactly as long as its member list.
func TestDetachResult(t *testing.T) {
	order := []uint32{10, 20, 30, 40, 50}
	orig := &ClusterResult{Seeds: []uint32{1}, Members: order[:3], Size: 3}
	dup := detachResult(orig)
	if &dup.Members[0] == &orig.Members[0] {
		t.Fatal("detached copy aliases the original member slice")
	}
	if cap(dup.Members) != len(dup.Members) {
		t.Fatalf("detached copy has cap %d for %d members", cap(dup.Members), len(dup.Members))
	}
	orig.Members[0] = 99 // the original is not the copy's to keep
	if dup.Members[0] != 10 {
		t.Fatalf("detached copy changed with the original: %d", dup.Members[0])
	}
	// nil members stay nil (null on the wire), not empty.
	if got := detachResult(&ClusterResult{}); got.Members != nil {
		t.Fatalf("detach invented a members slice: %v", got.Members)
	}
}

// TestCachedResponseSurvivesArenaRecycling is the end-to-end copy-on-store
// check: answer a query, run unrelated queries that recycle the graph's
// workspace pool, then re-read the first answer from the cache — both the
// first response and the cached one must be unchanged.
func TestCachedResponseSurvivesArenaRecycling(t *testing.T) {
	g := gen.SBM(1, []int{64, 64}, 10, 2, 9)
	reg := NewRegistry(1, false)
	reg.RegisterGraph("g", g)
	eng := NewEngine(reg, Config{ProcBudget: 2, CacheSize: 16})
	ctx := context.Background()

	req := &ClusterRequest{Graph: "g", Seeds: []uint32{0}, Params: Params{Alpha: 0.05, Epsilon: 0.0001}}
	resp1, err := eng.Cluster(ctx, req)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	want := append([]uint32(nil), resp1.Results[0].Members...)

	// Churn the pool with different queries so recycled scratch memory is
	// overwritten.
	for i := uint32(64); i < 72; i++ {
		if _, err := eng.Cluster(ctx, &ClusterRequest{
			Graph: "g", Seeds: []uint32{i}, NoCache: true,
			Params: Params{Alpha: 0.05, Epsilon: 0.0001},
		}); err != nil {
			t.Fatalf("churn query %d: %v", i, err)
		}
	}

	resp2, err := eng.Cluster(ctx, req)
	if err != nil {
		t.Fatalf("cached re-read: %v", err)
	}
	if !resp2.Results[0].Cached {
		t.Fatal("second identical query was not served from the cache")
	}
	for name, got := range map[string][]uint32{"first": resp1.Results[0].Members, "cached": resp2.Results[0].Members} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s response members changed to %v, want %v — a result aliased recycled memory", name, got, want)
		}
	}
}

// TestCachedEntryOwnsExactlyItsMembers pins what detachResult buys the
// cache: after a miss, every cached result's member list is an exact-size
// copy — not the head of a sweep order or of an evolving-set buffer with
// the rest of the support behind it — so cache_bytes, which counts members
// only, is the real retention. Width-1 units, 64-lane groups and the
// evolving set (which cuts no sweep) all publish through the same copy.
func TestCachedEntryOwnsExactlyItsMembers(t *testing.T) {
	e := batchTestEngine(t, 1, 64)
	ctx := context.Background()
	seeds := make([]uint32, 12)
	for i := range seeds {
		seeds[i] = uint32(i * 13)
	}
	for _, req := range []*ClusterRequest{
		{Graph: "test", Seeds: seeds[:1]},
		{Graph: "test", Seeds: seeds},
		{Graph: "test", Seeds: seeds[:3], Algo: "evolving"},
	} {
		if _, err := e.Cluster(ctx, req); err != nil {
			t.Fatalf("%s: %v", req.Algo, err)
		}
	}
	e.cache.mu.Lock()
	var entries int
	var want int64
	for key, el := range e.cache.items {
		val := el.Value.(*lruEntry).val
		if len(val.Members) == 0 {
			t.Fatalf("entry %q has no members", key)
		}
		if cap(val.Members) != len(val.Members) {
			t.Errorf("entry %q holds %d members in a slice of cap %d", key, len(val.Members), cap(val.Members))
		}
		entries++
		want += resultFootprint(key, val)
	}
	e.cache.mu.Unlock()
	if entries != 1+len(seeds)-1+3 {
		t.Fatalf("cache holds %d entries, want %d", entries, 1+len(seeds)-1+3)
	}
	if got := e.Stats().CacheBytes; got != want {
		t.Fatalf("cache_bytes = %d, want the entries' footprint %d", got, want)
	}
}
