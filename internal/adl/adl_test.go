package adl

import (
	"strings"
	"testing"
)

func TestBuiltinPlatformsValidate(t *testing.T) {
	for _, name := range BuiltinNames() {
		p := Builtin(name)
		if p == nil {
			t.Fatalf("Builtin(%q) = nil", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBuiltinNameParsing(t *testing.T) {
	if p := Builtin("xentium8"); p == nil || p.NumCores() != 8 || p.Bus == nil || p.Bus.Arbitration != ArbRoundRobin {
		t.Fatalf("xentium8: %+v", Builtin("xentium8"))
	}
	if p := Builtin("xentium4-tdm"); p == nil || p.Bus.Arbitration != ArbTDM {
		t.Fatal("xentium4-tdm arbitration")
	}
	if p := Builtin("leon3-4x4"); p == nil || p.NumCores() != 16 || p.NoC == nil {
		t.Fatal("leon3-4x4")
	}
	if Builtin("unknown-platform") != nil {
		t.Fatal("unknown name should return nil")
	}
}

// TestBuiltinExactNames checks that a name resolves only as the platform
// family spells it: fmt.Sscanf alone would ignore trailing text and take
// signs and leading zeros. A name spelling more than maxBuiltinCores
// cores resolves to nil too, including counts whose product overflows.
func TestBuiltinExactNames(t *testing.T) {
	for _, name := range []string{
		"xentium4foo", "xentium04", "xentium16 ", " xentium4", "xentium+4", "xentium-4", "xentium0",
		"xentium4-tdmx", "xentium4-TDM", "xentium04-tdm", "leon3-2x2junk", "leon3-02x2", "leon3-2x+2",
		"hetero-2f2sz", "hetero-2f2s ", "hetero-02f2s", "hetero-0f0s", "xentium", "",
		"xentium257", "xentium257-tdm", "xentium20000", "xentium100000", "leon3-16x17",
		"leon3-4294967296x4294967296", "leon3-3037000500x3037000500", "hetero-200f57s",
		"hetero-9223372036854775807f1s",
	} {
		if p := Builtin(name); p != nil {
			t.Errorf("Builtin(%q) = %s, want nil", name, p.Name)
		}
	}
	for name, cores := range map[string]int{
		"xentium32": 32, "xentium3-tdm": 3, "leon3-3x2": 6, "hetero-1f3s": 4, "hetero-0f4s": 4, "xentium12": 12,
		"xentium256": 256, "leon3-16x16": 256, "hetero-200f56s": 256,
	} {
		if p := Builtin(name); p == nil || p.NumCores() != cores {
			t.Errorf("Builtin(%q) = %v, want %d cores", name, p, cores)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Leon3TilePlatform(2, 2)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.NumCores() != p.NumCores() || q.NoC == nil || q.NoC.Width != 2 {
		t.Fatalf("round trip: %+v", q)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	cases := []string{
		`{}`,
		`{"name":"x"}`,
		`{"name":"x","cores":[{"id":0,"op_cycles":1}],"shared_memory":{"access_cycles":10}}`,                                                     // no bus/noc
		`{"name":"x","cores":[{"id":0,"op_cycles":0}],"shared_memory":{"access_cycles":10},"bus":{"arbitration":"round-robin","slot_cycles":4}}`, // op_cycles 0
		`{"name":"x","cores":[{"id":1,"op_cycles":1}],"shared_memory":{"access_cycles":10},"bus":{"arbitration":"round-robin","slot_cycles":4}}`, // non-dense id
		`not json`,
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

func TestValidateArbitrationKinds(t *testing.T) {
	p := XentiumPlatform(2)
	p.Bus.Arbitration = "fifo"
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "arbitration") {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedAccessIsolatedBus(t *testing.T) {
	p := XentiumPlatform(4)
	for id := range p.Cores {
		if got := p.SharedAccessIsolated(id); got != p.Shared.AccessCycles {
			t.Fatalf("core %d: %d", id, got)
		}
	}
}

func TestSharedAccessIsolatedNoCGrowsWithDistance(t *testing.T) {
	p := Leon3TilePlatform(4, 4)
	near := p.SharedAccessIsolated(0) // tile (0,0)
	far := p.SharedAccessIsolated(15) // tile (3,3)
	if far <= near {
		t.Fatalf("far %d should exceed near %d", far, near)
	}
	if m := p.MaxSharedAccessIsolated(); m != far {
		t.Fatalf("max %d, want %d", m, far)
	}
}

// TestSharedAccessCharge pins the access charge: the isolated latency
// plus the residual by which the interconnect's hold per grant
// (round-robin slot, NoC WRR quantum) outlasts the shortest access, and
// never a hold under TDM.
func TestSharedAccessCharge(t *testing.T) {
	rr := XentiumPlatform(2)
	rr.Bus.SlotCycles = 48
	if got := rr.SharedAccessCharge(1); got != 48 {
		t.Errorf("round-robin, slot 48 > access 18: charge %d, want 48", got)
	}
	tdm := XentiumTDMPlatform(2)
	tdm.Bus.SlotCycles = 48
	if got := tdm.SharedAccessCharge(1); got != 18 {
		t.Errorf("TDM, slot 48: charge %d, want the isolated 18", got)
	}
	noc := Leon3TilePlatform(2, 2)
	noc.NoC.WRRWeight = 10 // hold 10 × 2 = 20
	if got := noc.SharedAccessCharge(0); got != 20 {
		t.Errorf("NoC tile (0,0), hold 20 > isolated 12: charge %d, want 20", got)
	}
	// Tile (1,1) is 32 cycles from memory, longer than the hold, but a
	// request still waits out a nearer core's residual hold (20 - 12).
	if got := noc.SharedAccessCharge(3); got != 32+8 {
		t.Errorf("NoC tile (1,1), isolated 32, residual 8: charge %d, want 40", got)
	}
}

// TestSharedAccessChargeBuiltins: every built-in platform holds a grant
// no longer than an access takes, so the charge is the isolated latency
// and no built-in bound depends on the hold term.
func TestSharedAccessChargeBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		p := Builtin(name)
		for id := range p.Cores {
			if got, want := p.SharedAccessCharge(id), p.SharedAccessIsolated(id); got != want {
				t.Errorf("%s core %d: charge %d, isolated %d", name, id, got, want)
			}
		}
	}
}

func TestAccessInterferenceDelayRoundRobin(t *testing.T) {
	p := XentiumPlatform(4)
	if d := p.AccessInterferenceDelay(0); d != 0 {
		t.Fatalf("no contenders: %d", d)
	}
	d1 := p.AccessInterferenceDelay(1)
	d3 := p.AccessInterferenceDelay(3)
	if d1 <= 0 || d3 != 3*d1 {
		t.Fatalf("rr delays: %d %d", d1, d3)
	}
}

func TestAccessInterferenceDelayTDMIsContentionIndependent(t *testing.T) {
	p := XentiumTDMPlatform(4)
	d1 := p.AccessInterferenceDelay(1)
	d3 := p.AccessInterferenceDelay(3)
	if d1 != d3 {
		t.Fatalf("tdm should not depend on contenders: %d vs %d", d1, d3)
	}
	if d1 != 4*p.Bus.SlotCycles {
		t.Fatalf("tdm delay: %d", d1)
	}
}

func TestTDMMorePessimisticAtLowContention(t *testing.T) {
	rr := XentiumPlatform(8)
	tdm := XentiumTDMPlatform(8)
	if rr.AccessInterferenceDelay(1) >= tdm.AccessInterferenceDelay(1) {
		t.Fatal("RR should beat TDM when contention is low")
	}
}

func TestDMACycles(t *testing.T) {
	p := XentiumPlatform(2)
	if d := p.DMACycles(0, 0); d != 0 {
		t.Fatalf("zero bytes: %d", d)
	}
	small := p.DMACycles(0, 64)
	big := p.DMACycles(0, 4096)
	if big <= small || small <= p.DMA.SetupCycles {
		t.Fatalf("dma scaling: %d %d", small, big)
	}
	// NoC platform: farther tiles pay more.
	q := Leon3TilePlatform(4, 4)
	if q.DMACycles(15, 1024) <= q.DMACycles(0, 1024) {
		t.Fatal("noc dma should grow with distance")
	}
}

func TestMeshCapacityValidation(t *testing.T) {
	p := Leon3TilePlatform(2, 2)
	p.Cores = append(p.Cores, Core{ID: 4, Kind: "leon3", OpCycles: 1, TileX: 0, TileY: 0})
	if err := p.Validate(); err == nil {
		t.Fatal("5 cores on a 2x2 mesh must fail validation")
	}
}

func TestHeteroPlatform(t *testing.T) {
	p := Builtin("hetero-2f2s")
	if p == nil || p.NumCores() != 4 {
		t.Fatalf("hetero-2f2s: %+v", p)
	}
	if p.Cores[0].OpCycles >= p.Cores[3].OpCycles {
		t.Fatal("fast cores must be faster than slow cores")
	}
	if p.Cores[0].SPM.SizeBytes <= p.Cores[3].SPM.SizeBytes {
		t.Fatal("fast cores carry the larger scratchpads")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
