package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzHashRing drives the placement invariants with fuzzer-chosen
// member sets and keys: ownership is a member, Order is an owner-led
// permutation, and — the rendezvous property — removing the key's owner reassigns only that
// key's placement while removing a non-owner never changes it.
func FuzzHashRing(f *testing.F) {
	f.Add("a,b,c", "some-key", 3)
	f.Add("http://r1:1,http://r2:1,http://r3:1,http://r4:1", "sha256:deadbeef", 1)
	f.Add("x", "", 0)
	f.Add("", "key", 2)
	f.Add("m0,m1,m2,m3,m4,m5,m6,m7", "aaaaaaaaaaaaaaaaaaaaaaaa", -1)

	f.Fuzz(func(t *testing.T, memberCSV, key string, salt int) {
		var members []string
		for _, m := range strings.Split(memberCSV, ",") {
			if m != "" {
				members = append(members, m)
			}
		}
		r := NewRing(members)

		owner := r.Owner(key)
		if r.Len() == 0 {
			if owner != "" {
				t.Fatalf("empty ring owner = %q", owner)
			}
			return
		}

		// Ownership lands on a member and is deterministic.
		found := false
		for _, m := range r.Members() {
			if m == owner {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("owner %q not in member set %v", owner, r.Members())
		}
		if again := r.Owner(key); again != owner {
			t.Fatalf("owner not deterministic: %q then %q", owner, again)
		}

		// Order: owner-led permutation of the member set.
		order := r.Order(key)
		if len(order) != r.Len() {
			t.Fatalf("order has %d entries for %d members", len(order), r.Len())
		}
		if order[0] != owner {
			t.Fatalf("order[0] = %q, owner = %q", order[0], owner)
		}
		seen := make(map[string]bool, len(order))
		for _, m := range order {
			if seen[m] {
				t.Fatalf("order repeats member %q", m)
			}
			seen[m] = true
		}

		// Minimal remap: removing the owner promotes exactly the next
		// preference; removing any non-owner leaves the key untouched.
		if r.Len() > 1 {
			without := func(drop string) *Ring {
				var rest []string
				for _, m := range r.Members() {
					if m != drop {
						rest = append(rest, m)
					}
				}
				return NewRing(rest)
			}
			if got := without(owner).Owner(key); got != order[1] {
				t.Fatalf("removing owner reassigned to %q, want next preference %q", got, order[1])
			}
			nonOwner := order[len(order)-1]
			if nonOwner != owner {
				if got := without(nonOwner).Owner(key); got != owner {
					t.Fatalf("removing non-owner %q moved key to %q", nonOwner, got)
				}
			}
		}

		// Adding a member moves the key only if the new member wins.
		added := fmt.Sprintf("fuzz-added-%d", salt)
		grown := NewRing(append(append([]string{}, r.Members()...), added))
		if grown.Len() > r.Len() { // added was genuinely new
			if got := grown.Owner(key); got != owner && got != added {
				t.Fatalf("adding %q moved key from %q to unrelated %q", added, owner, got)
			}
		}
	})
}
