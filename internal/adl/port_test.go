package adl

import (
	"fmt"
	"math/rand"
	"testing"
)

// servePort serves per-core request streams on p's shared port in
// (request time, core) order, the order the simulator's event loop
// serves them, with one outstanding request per core: core c issues its
// first request gaps[c][0] cycles after time 0 and each later one
// gaps[c][i] cycles after its previous access completed. It returns the
// number of accesses served and a description of each access that took
// longer than the analysis charges it: SharedAccessCharge(core) plus
// AccessInterferenceDelay for the other cores with a non-empty stream.
func servePort(p *Platform, gaps [][]int64) (served int, violations []string) {
	contenders := -1
	for _, g := range gaps {
		if len(g) > 0 {
			contenders++
		}
	}
	delay := int64(p.AccessInterferenceDelay(contenders))
	port := p.NewPort()
	next := make([]int, len(gaps))
	at := make([]int64, len(gaps))
	for c, g := range gaps {
		if len(g) > 0 {
			at[c] = g[0]
		}
	}
	for {
		core := -1
		for c := range gaps {
			if next[c] < len(gaps[c]) && (core < 0 || at[c] < at[core]) {
				core = c
			}
		}
		if core < 0 {
			return served, violations
		}
		t := at[core]
		done, wait := port.Access(core, t)
		served++
		if bound := int64(p.SharedAccessCharge(core)) + delay; done-t > bound || wait < 0 {
			violations = append(violations, fmt.Sprintf("core %d: request at %d done at %d (wait %d), charged %d with %d contenders",
				core, t, done, wait, bound, contenders))
		}
		if next[core]++; next[core] < len(gaps[core]) {
			at[core] = done + gaps[core][next[core]]
		}
	}
}

// randomPortPlatform draws a round-robin or TDM bus of 1–8 cores with a
// slot of 1–40 cycles, or a mesh of up to 3×3 tiles with link and router
// cycles of 1–3 and a WRR weight of 1–6, each with a shared access of
// 2–31 cycles, so holds both shorter and longer than an access occur.
func randomPortPlatform(rng *rand.Rand) *Platform {
	var p *Platform
	switch rng.Intn(3) {
	case 0:
		p = XentiumPlatform(1 + rng.Intn(8))
		p.Bus.SlotCycles = 1 + rng.Intn(40)
	case 1:
		p = XentiumTDMPlatform(1 + rng.Intn(8))
		p.Bus.SlotCycles = 1 + rng.Intn(40)
	default:
		p = Leon3TilePlatform(1+rng.Intn(3), 1+rng.Intn(3))
		p.NoC.LinkCycles = 1 + rng.Intn(3)
		p.NoC.RouterCycles = 1 + rng.Intn(3)
		p.NoC.WRRWeight = 1 + rng.Intn(6)
	}
	p.Shared.AccessCycles = 2 + rng.Intn(30)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// randomStreams draws a request stream for each core: a core stays out
// with probability 1/4, and otherwise issues 1–40 requests whose gaps are
// 0–59 cycles, a third of them 0 (back-to-back accesses).
func randomStreams(rng *rand.Rand, cores int) [][]int64 {
	gaps := make([][]int64, cores)
	for c := range gaps {
		if rng.Intn(4) == 0 {
			continue
		}
		gaps[c] = make([]int64, 1+rng.Intn(40))
		for i := range gaps[c] {
			if rng.Intn(3) > 0 {
				gaps[c][i] = 1 + rng.Int63n(59)
			}
		}
	}
	return gaps
}

// TestPortWithinCharge is the per-access soundness property behind every
// bound: over generated platforms and request streams, no access served
// by the port (the simulator's arbitration) takes longer than the
// analysis charges it.
func TestPortWithinCharge(t *testing.T) {
	const cases = 20000
	rng := rand.New(rand.NewSource(1))
	var served, bad int
	var kinds [3]int
	for i := 0; i < cases; i++ {
		p := randomPortPlatform(rng)
		switch {
		case p.NoC != nil:
			kinds[2]++
		case p.Bus.Arbitration == ArbTDM:
			kinds[1]++
		default:
			kinds[0]++
		}
		n, v := servePort(p, randomStreams(rng, p.NumCores()))
		if len(v) > 0 && bad == 0 {
			t.Errorf("case %d on %s (access %d, hold %d): %s", i, p.Name, p.Shared.AccessCycles, p.hold(), v[0])
		}
		served += n
		bad += len(v)
	}
	if bad > 0 {
		t.Errorf("%d of %d accesses exceeded their charge", bad, served)
	}
	for k, n := range kinds {
		if n < cases/4 {
			t.Fatalf("policy %d drawn %d times of %d; the generator covers too little", k, n, cases)
		}
	}
}

// FuzzSharedPort runs TestPortWithinCharge's per-access check on a
// fuzzed policy (0 round-robin bus, 1 TDM bus, 2 mesh), its parameters
// and a gap string. A bus has width × height cores; byte i of gaps is
// the next gap of core i mod cores.
//
// Run the full fuzzer with: go test -fuzz=FuzzSharedPort ./internal/adl
func FuzzSharedPort(f *testing.F) {
	back2back := make([]byte, 72)
	staggered := []byte{0, 1, 2, 3, 0, 0, 0, 0, 5, 0, 9, 0, 0, 0, 0, 0, 17, 3, 0, 1}
	// The mesh case that a charge of max(isolated, hold) missed: a far
	// core waits out a nearer core's residual hold.
	f.Add(uint8(2), uint8(3), uint8(3), uint8(8), uint8(1), uint8(3), uint8(23), uint8(14), back2back)
	// Buses whose slot outlasts the 18-cycle access: xentium4 with slot
	// 24, xentium1 with slot 36, and E3's xentium4-congested (slot 48).
	f.Add(uint8(0), uint8(4), uint8(1), uint8(24), uint8(1), uint8(1), uint8(1), uint8(18), staggered)
	f.Add(uint8(0), uint8(1), uint8(1), uint8(36), uint8(1), uint8(1), uint8(1), uint8(18), back2back[:8])
	f.Add(uint8(0), uint8(4), uint8(1), uint8(48), uint8(1), uint8(1), uint8(1), uint8(18), staggered)
	f.Fuzz(func(t *testing.T, policy, width, height, slot, link, router, wrr, access uint8, gaps []byte) {
		if width == 0 || height == 0 || width > 4 || height > 4 || len(gaps) > 1024 {
			return
		}
		var p *Platform
		switch policy % 3 {
		case 0:
			p = XentiumPlatform(int(width) * int(height))
		case 1:
			p = XentiumTDMPlatform(int(width) * int(height))
		default:
			p = Leon3TilePlatform(int(width), int(height))
			p.NoC.LinkCycles, p.NoC.RouterCycles, p.NoC.WRRWeight = int(link), int(router), int(wrr)
		}
		if p.Bus != nil {
			p.Bus.SlotCycles = int(slot)
		}
		p.Shared.AccessCycles = int(access)
		if p.Validate() != nil {
			return
		}
		streams := make([][]int64, p.NumCores())
		for i, b := range gaps {
			streams[i%len(streams)] = append(streams[i%len(streams)], int64(b))
		}
		if _, v := servePort(p, streams); len(v) > 0 {
			t.Fatalf("%s (access %d, hold %d): %d accesses exceeded their charge, first %s", p.Name, access, p.hold(), len(v), v[0])
		}
	})
}
