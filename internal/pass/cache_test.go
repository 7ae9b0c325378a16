package pass

import (
	"fmt"
	"testing"
)

func TestCacheBoundEvictsPerInsert(t *testing.T) {
	const bound = 32
	c := NewCache(bound)
	ev0 := globalEvictions.Value()
	for i := 0; i < 10*bound; i++ {
		c.put(cacheAddress("p", []byte(fmt.Sprintf("fp-%d", i))), i)
	}
	if n := c.Len(); n != bound {
		t.Fatalf("cache holds %d entries, bound is %d", n, bound)
	}
	st := c.Stats()
	if st.Evictions != 9*bound {
		t.Fatalf("%d evictions, want one per insert beyond the bound (%d)", st.Evictions, 9*bound)
	}
	if got := globalEvictions.Value() - ev0; got != st.Evictions {
		t.Fatalf("argo_pass_cache_evictions moved by %d, the cache evicted %d", got, st.Evictions)
	}
	if st.Entries != c.Len() {
		t.Fatalf("Stats.Entries %d != Len %d", st.Entries, c.Len())
	}

	// Re-inserting an existing key replaces in place: no eviction.
	a := cacheAddress("p", []byte("stable"))
	c.put(a, 1)
	before := c.Stats().Evictions
	c.put(a, 2)
	if got := c.Stats().Evictions; got != before {
		t.Fatalf("overwrite evicted: %d -> %d", before, got)
	}
	if v, ok := c.get(a); !ok || v.(int) != 2 {
		t.Fatalf("overwrite lost the entry: %v %v", v, ok)
	}
}

func TestCacheSetMaxAndReset(t *testing.T) {
	fill := func(c *Cache, n int) {
		for i := 0; i < n; i++ {
			c.put(cacheAddress("p", []byte(fmt.Sprintf("%d", i))), i)
		}
	}
	c := NewCache(0)
	fill(c, defaultCacheMax+10)
	if n := c.Len(); n != defaultCacheMax {
		t.Fatalf("NewCache(0) holds %d entries, want the default bound %d", n, defaultCacheMax)
	}
	c.SetMax(5)
	if n := c.Len(); n != 5 {
		t.Fatalf("SetMax(5) left %d entries", n)
	}
	c.SetMax(0) // restores the default
	fill(c, defaultCacheMax+10)
	if n := c.Len(); n != defaultCacheMax {
		t.Fatalf("after SetMax(0) the cache holds %d entries, want %d", n, defaultCacheMax)
	}

	ev := c.Stats().Evictions
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Reset left %d entries", c.Len())
	}
	if got := c.Stats().Evictions; got != ev {
		t.Fatalf("Reset changed the eviction total: %d -> %d", ev, got)
	}
}
