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
// memory with the original, so nothing that reads it can alias the result
// arena released right after the copy is made.
func TestDetachResult(t *testing.T) {
	orig := &ClusterResult{Seeds: []uint32{1}, Members: []uint32{10, 20, 30}, Size: 3}
	dup := detachResult(orig)
	if &dup.Members[0] == &orig.Members[0] {
		t.Fatal("detached copy aliases the original member slice")
	}
	orig.Members[0] = 99 // simulate the arena being recycled
	if dup.Members[0] != 10 {
		t.Fatalf("detached copy changed with the original: %d", dup.Members[0])
	}
	// nil members stay nil (null on the wire), not empty.
	if got := detachResult(&ClusterResult{}); got.Members != nil {
		t.Fatalf("detach invented a members slice: %v", got.Members)
	}
}

// TestCachedResponseSurvivesArenaRecycling is the end-to-end copy-on-store
// check: answer a query, run unrelated queries that recycle the same arena
// memory, then re-read the first answer from the cache — both the first
// response and the cached one must be unchanged.
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

	// Churn the pool with different queries so the recycled arena memory is
	// overwritten.
	for i := uint32(64); i < 72; i++ {
		if _, err := eng.Cluster(ctx, &ClusterRequest{
			Graph: "g", Seeds: []uint32{i}, NoCache: true,
			Params: Params{Alpha: 0.05, Epsilon: 0.0001},
		}); err != nil {
			t.Fatalf("churn query %d: %v", i, err)
		}
	}
	if ws := eng.Stats().Workspace; ws.ResultHits == 0 {
		t.Fatalf("the churn never recycled an arena: %+v", ws)
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
			t.Fatalf("%s response members changed to %v, want %v — a result aliased recycled arena memory", name, got, want)
		}
	}
}
