package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// keys generates n distinct synthetic job keys (hex-ish content
// addresses in real use; any distinct strings exercise the same code).
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sha256:%08x-job-key", i*2654435761)
	}
	return out
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8321", i)
	}
	return out
}

func TestNewRingSortsAndDedups(t *testing.T) {
	r := NewRing([]string{"http://b", "http://a", "http://b", "", "http://a"})
	want := []string{"http://a", "http://b"}
	if !reflect.DeepEqual(r.Members(), want) {
		t.Fatalf("members = %v, want %v", r.Members(), want)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
}

func TestOwnerEmptyRing(t *testing.T) {
	if got := NewRing(nil).Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}

// Ownership must be a pure function of (member set, key): the same set
// in any insertion order places every key identically.
func TestOwnerIndependentOfMemberOrder(t *testing.T) {
	ms := members(5)
	a := NewRing(ms)
	b := NewRing([]string{ms[3], ms[0], ms[4], ms[2], ms[1]})
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owner depends on member order (%q vs %q)",
				k, a.Owner(k), b.Owner(k))
		}
	}
}

// Balance: over many keys each member's share must concentrate around
// 1/n. The bound (max <= 1.2x mean over 20k keys at n=5) is far looser
// than what a correct avalanche-mixed weight gives, but tight enough to
// catch a biased weight function immediately.
func TestOwnerBalance(t *testing.T) {
	const nKeys = 20000
	ms := members(5)
	r := NewRing(ms)
	counts := make(map[string]int, len(ms))
	for _, k := range keys(nKeys) {
		counts[r.Owner(k)]++
	}
	mean := float64(nKeys) / float64(len(ms))
	for _, m := range ms {
		c := counts[m]
		if c == 0 {
			t.Fatalf("member %s owns no keys", m)
		}
		if ratio := float64(c) / mean; ratio > 1.2 || ratio < 0.8 {
			t.Errorf("member %s owns %d keys (%.2fx mean); want within [0.8, 1.2]x", m, c, ratio)
		}
	}
}

// Removing a member must move exactly the removed member's keys:
// rendezvous hashing's defining property. Every key owned by a survivor
// keeps its owner bit-for-bit.
func TestRemoveMovesOnlyRemovedKeys(t *testing.T) {
	ms := members(5)
	full := NewRing(ms)
	removed := ms[2]
	smaller := NewRing(append(append([]string{}, ms[:2]...), ms[3:]...))
	moved := 0
	for _, k := range keys(5000) {
		before, after := full.Owner(k), smaller.Owner(k)
		if before == removed {
			moved++
			if after == removed {
				t.Fatalf("key %q still owned by removed member", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %q moved from surviving member %q to %q on unrelated removal",
				k, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; balance is broken")
	}
}

// Adding a member must move keys only TO the new member (a key whose
// old maximum still wins keeps its owner), and the moved fraction must
// be near 1/(n+1).
func TestAddMovesOnlyToNewMember(t *testing.T) {
	const nKeys = 20000
	ms := members(5)
	before := NewRing(ms)
	added := "http://replica-new:8321"
	after := NewRing(append(append([]string{}, ms...), added))
	moved := 0
	for _, k := range keys(nKeys) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		if oa != added {
			t.Fatalf("key %q moved %q -> %q, not to the added member", k, ob, oa)
		}
		moved++
	}
	frac := float64(moved) / float64(nKeys)
	expect := 1.0 / float64(len(ms)+1)
	if frac > 2*expect || frac < expect/2 {
		t.Errorf("add moved %.3f of keys; want near 1/(n+1) = %.3f", frac, expect)
	}
}

// Order must be a permutation of the members, start with the owner, and
// be deterministic.
func TestOrderIsOwnerLedPermutation(t *testing.T) {
	ms := members(6)
	r := NewRing(ms)
	for _, k := range keys(200) {
		order := r.Order(k)
		if len(order) != len(ms) {
			t.Fatalf("order has %d entries, want %d", len(order), len(ms))
		}
		if order[0] != r.Owner(k) {
			t.Fatalf("order[0] = %q, owner = %q", order[0], r.Owner(k))
		}
		seen := make(map[string]bool, len(order))
		for _, m := range order {
			if seen[m] {
				t.Fatalf("member %q appears twice in order", m)
			}
			seen[m] = true
		}
		if !reflect.DeepEqual(order, r.Order(k)) {
			t.Fatalf("order not deterministic for key %q", k)
		}
	}
}

// TestMembershipFixture pins the exact placements of a 5 -> 4 -> 6
// membership walk for a fixed key set, so any change to the weight
// function or tie-break rule — which would silently remap every
// deployed cluster's shards — fails loudly. The goldens were generated
// from this implementation and are frozen on purpose.
func TestMembershipFixture(t *testing.T) {
	fixKeys := []string{"alpha", "bravo", "charlie", "delta", "echo",
		"foxtrot", "golf", "hotel", "india", "juliett"}
	five := NewRing(members(5))
	four := NewRing(members(4)) // replica-4 removed
	six := NewRing(members(6))  // replica-4 back, replica-5 added

	got := map[string][]string{"5": {}, "4": {}, "6": {}}
	for _, k := range fixKeys {
		got["5"] = append(got["5"], five.Owner(k))
		got["4"] = append(got["4"], four.Owner(k))
		got["6"] = append(got["6"], six.Owner(k))
	}
	want := map[string][]string{
		"5": goldenOwners5,
		"4": goldenOwners4,
		"6": goldenOwners6,
	}
	for phase, w := range want {
		if !reflect.DeepEqual(got[phase], w) {
			t.Errorf("phase %s owners changed:\n got %v\nwant %v", phase, got[phase], w)
		}
	}
}
