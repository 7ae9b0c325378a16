// Package adl implements the ARGO Architecture Description Language
// (paper §II-A): a model-based description of the target multi-core
// platform carrying exactly the information the tool-chain needs to
// compute WCETs — processors, scratchpads, shared memory, and the
// interconnect with its arbitration policy.
//
// Platforms follow the predictability guidelines of paper §III-B:
// time-predictable cores, scratchpads instead of caches, a minimal set of
// shared resources, a predictable interconnect with known worst-case
// grant and transfer delays, and full timing compositionality.
//
// Descriptions are plain data, serializable to JSON, with two built-in
// reference platforms modelled after the project's targets: a Recore
// Xentium-style DSP many-core and a KIT Leon3-style tile architecture
// with an invasive-NoC-style mesh interconnect.
package adl

import (
	"encoding/json"
	"fmt"
)

// ArbitrationKind selects the shared-memory arbitration policy.
type ArbitrationKind string

// Supported arbitration policies.
const (
	// ArbRoundRobin grants contenders in round-robin order: an access
	// waits at most (contenders-1) slots before being served.
	ArbRoundRobin ArbitrationKind = "round-robin"
	// ArbTDM is time-division multiplexing with one fixed slot per core:
	// an access waits at most a full period regardless of actual load
	// (fully composable, more pessimistic under low contention).
	ArbTDM ArbitrationKind = "tdm"
)

// SPM describes a core-private scratchpad memory.
type SPM struct {
	SizeBytes     int `json:"size_bytes"`
	LatencyCycles int `json:"latency_cycles"`
}

// Core describes one time-predictable processing core.
type Core struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"` // e.g. "xentium", "leon3"
	// OpCycles is the number of cycles one abstract ALU-operation unit
	// takes (the IR cost model counts op units; this scales them).
	OpCycles int `json:"op_cycles"`
	SPM      SPM `json:"spm"`
	// Tile is the (x, y) position on the NoC mesh, if the platform uses
	// one; ignored for bus platforms.
	TileX int `json:"tile_x"`
	TileY int `json:"tile_y"`
}

// SharedMemory describes the shared global memory.
type SharedMemory struct {
	SizeBytes int `json:"size_bytes"`
	// AccessCycles is the isolated (contention-free) latency of one
	// element access once the interconnect grant is held.
	AccessCycles int `json:"access_cycles"`
}

// Bus describes a shared-bus interconnect.
type Bus struct {
	Arbitration ArbitrationKind `json:"arbitration"`
	// SlotCycles is the arbitration slot length (cycles held per grant).
	SlotCycles int `json:"slot_cycles"`
}

// NoCSpec describes a 2-D mesh network-on-chip with weighted-round-robin
// router arbitration (after Heißwolf/König/Becker, ref [12] of the paper).
type NoCSpec struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	// LinkCycles is the per-hop link traversal latency in cycles/flit.
	LinkCycles int `json:"link_cycles"`
	// RouterCycles is the per-hop router pipeline latency.
	RouterCycles int `json:"router_cycles"`
	// FlitBytes is the payload per flit.
	FlitBytes int `json:"flit_bytes"`
	// WRRWeight is the default weighted-round-robin weight per flow.
	WRRWeight int `json:"wrr_weight"`
	// MaxPacketFlits bounds packet size (segmentation above this).
	MaxPacketFlits int `json:"max_packet_flits"`
}

// DMA describes the scratchpad DMA engine used to stage buffers.
type DMA struct {
	SetupCycles   int     `json:"setup_cycles"`
	CyclesPerByte float64 `json:"cycles_per_byte"`
}

// Platform is a complete ADL platform description.
type Platform struct {
	Name   string       `json:"name"`
	Cores  []Core       `json:"cores"`
	Shared SharedMemory `json:"shared_memory"`
	Bus    *Bus         `json:"bus,omitempty"`
	NoC    *NoCSpec     `json:"noc,omitempty"`
	DMA    DMA          `json:"dma"`
}

// NumCores returns the number of cores.
func (p *Platform) NumCores() int { return len(p.Cores) }

// Validate checks internal consistency of the description.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("adl: platform has no name")
	}
	if len(p.Cores) == 0 {
		return fmt.Errorf("adl: platform %q has no cores", p.Name)
	}
	seen := map[int]bool{}
	for i, c := range p.Cores {
		if c.ID != i {
			return fmt.Errorf("adl: core %d has id %d (ids must be dense, in order)", i, c.ID)
		}
		if seen[c.ID] {
			return fmt.Errorf("adl: duplicate core id %d", c.ID)
		}
		seen[c.ID] = true
		if c.OpCycles <= 0 {
			return fmt.Errorf("adl: core %d has non-positive op_cycles", c.ID)
		}
		if c.SPM.SizeBytes < 0 || (c.SPM.SizeBytes > 0 && c.SPM.LatencyCycles <= 0) {
			return fmt.Errorf("adl: core %d has inconsistent SPM spec", c.ID)
		}
	}
	if p.Shared.AccessCycles <= 0 {
		return fmt.Errorf("adl: shared memory access_cycles must be positive")
	}
	if (p.Bus == nil) == (p.NoC == nil) {
		return fmt.Errorf("adl: platform must have exactly one of bus or noc")
	}
	if p.Bus != nil {
		if p.Bus.Arbitration != ArbRoundRobin && p.Bus.Arbitration != ArbTDM {
			return fmt.Errorf("adl: unknown arbitration %q", p.Bus.Arbitration)
		}
		if p.Bus.SlotCycles <= 0 {
			return fmt.Errorf("adl: bus slot_cycles must be positive")
		}
	}
	if p.NoC != nil {
		n := p.NoC
		if n.Width <= 0 || n.Height <= 0 {
			return fmt.Errorf("adl: noc mesh dimensions must be positive")
		}
		if n.Width*n.Height < len(p.Cores) {
			return fmt.Errorf("adl: %dx%d mesh cannot host %d cores", n.Width, n.Height, len(p.Cores))
		}
		if n.LinkCycles <= 0 || n.RouterCycles <= 0 || n.FlitBytes <= 0 || n.WRRWeight <= 0 || n.MaxPacketFlits <= 0 {
			return fmt.Errorf("adl: noc parameters must be positive")
		}
		for _, c := range p.Cores {
			if c.TileX < 0 || c.TileX >= n.Width || c.TileY < 0 || c.TileY >= n.Height {
				return fmt.Errorf("adl: core %d tile (%d,%d) outside %dx%d mesh", c.ID, c.TileX, c.TileY, n.Width, n.Height)
			}
		}
	}
	if p.DMA.SetupCycles < 0 || p.DMA.CyclesPerByte < 0 {
		return fmt.Errorf("adl: dma costs must be non-negative")
	}
	return nil
}

// MarshalJSON round-trips through a plain struct (Platform has no cycles).
// Encode serializes the platform description.
func Encode(p *Platform) ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Decode parses a platform description and validates it.
func Decode(data []byte) (*Platform, error) {
	var p Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("adl: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// --- timing model -----------------------------------------------------------

// SharedAccessIsolated returns the contention-free worst-case latency of
// one shared-memory element access from core id (grant assumed immediate).
func (p *Platform) SharedAccessIsolated(coreID int) int {
	lat := p.Shared.AccessCycles
	if p.NoC != nil {
		// Shared memory sits at tile (0, 0); add the round-trip
		// through the mesh.
		c := p.Cores[coreID]
		hops := c.TileX + c.TileY
		lat += 2 * hops * (p.NoC.LinkCycles + p.NoC.RouterCycles)
	}
	return lat
}

// hold is how long one grant keeps the shared port from the next
// request: a whole slot on a round-robin bus and one WRR quantum
// (wrr_weight × link_cycles) at the mesh's memory port. It is 0 under
// TDM, whose grants follow the fixed slot table (tdmPeriod), not the
// port's state. The simulated port (Port) and the analysis charges
// (SharedAccessCharge, AccessInterferenceDelay) read the hold only here.
func (p *Platform) hold() int {
	switch {
	case p.Bus != nil && p.Bus.Arbitration == ArbTDM:
		return 0
	case p.Bus != nil:
		return p.Bus.SlotCycles
	case p.NoC != nil:
		return p.NoC.WRRWeight * p.NoC.LinkCycles
	}
	return 0
}

// tdmPeriod is the TDM slot table's period, one slot per core, or 0 when
// the platform is not a TDM bus.
func (p *Platform) tdmPeriod() int {
	if p.Bus != nil && p.Bus.Arbitration == ArbTDM {
		return len(p.Cores) * p.Bus.SlotCycles
	}
	return 0
}

// SharedAccessCharge is the analysis's charge for one shared-memory
// element access from core id, before interference
// (AccessInterferenceDelay adds a hold per contender). The port is held
// for hold() cycles per grant, while an access completes after its
// isolated latency. Where the hold is longer, the core that last held
// the port may have finished its access and queued its next one while
// the port is still held: a request can wait out that residual, at most
// hold minus the shortest isolated latency (access_cycles), on top of
// one hold per contender. The charge is the isolated latency plus that
// residual; on a bus, where every core's isolated latency is
// access_cycles, that is max(isolated, hold). TDM has no hold: its
// interference bound already charges every access a full period.
func (p *Platform) SharedAccessCharge(coreID int) int {
	return p.SharedAccessIsolated(coreID) + max(0, p.hold()-p.Shared.AccessCycles)
}

// MaxSharedAccessIsolated returns the maximum isolated shared access
// latency over all cores (used where the core is not yet known).
func (p *Platform) MaxSharedAccessIsolated() int {
	m := 0
	for id := range p.Cores {
		if l := p.SharedAccessIsolated(id); l > m {
			m = l
		}
	}
	return m
}

// AccessInterferenceDelay bounds the extra delay per shared access when
// `contenders` other cores may access the shared resource concurrently
// (paper §II-D: the number of contenders is known statically after
// scheduling, which is what keeps this bound from being pessimistic).
func (p *Platform) AccessInterferenceDelay(contenders int) int {
	if period := p.tdmPeriod(); period > 0 {
		// TDM ignores actual contention entirely: grants happen only at
		// slot starts, so every request may wait a full period — even a
		// core running alone (fully composable, load-independent, and
		// correspondingly pessimistic at low contention).
		return period
	}
	// Each contender holds the port (bus slot, WRR quantum at the mesh's
	// memory port) at most once ahead of us.
	return max(0, contenders) * p.hold()
}

// Port is the shared-memory port's arbitration state during one
// simulated run, and the one executable definition of each policy. The
// analysis charges above bound every access it serves when requests
// arrive in (request time, core) order with at most one outstanding per
// core, as the simulator's event loop issues them: each completes within
// SharedAccessCharge(core) + AccessInterferenceDelay(other requesting
// cores) of its request. Port is a value: copying it snapshots the state
// (the simulator's event-loop prefix keeps one).
type Port struct {
	// Free is when the held port is next free for a new grant (round
	// robin, mesh); TDM grants ignore it.
	Free int64
	// Waits is the total arbitration wait of the accesses served so far.
	Waits int64

	platform           *Platform
	hold, period, slot int64
}

// NewPort returns the platform's shared port with no access served yet.
func (p *Platform) NewPort() Port {
	pt := Port{platform: p, hold: int64(p.hold()), period: int64(p.tdmPeriod())}
	if pt.period > 0 {
		pt.slot = pt.period / int64(len(p.Cores))
	}
	return pt
}

// Access serves one shared-memory access requested by core at time t and
// returns its completion time and the arbitration wait it suffered. A
// held port grants at the later of t and Free, then stays held for
// hold() cycles; a TDM bus grants at the start of the core's next own
// slot. The access completes its isolated latency after the grant.
func (pt *Port) Access(core int, t int64) (done, wait int64) {
	var grant int64
	if pt.period > 0 {
		grant = t - t%pt.period + int64(core)*pt.slot
		if grant < t {
			grant += pt.period
		}
	} else {
		grant = max(t, pt.Free)
		pt.Free = grant + pt.hold
	}
	wait = grant - t
	pt.Waits += wait
	return grant + int64(pt.platform.SharedAccessIsolated(core)), wait
}

// DMACycles bounds a DMA transfer of n bytes between shared memory and a
// core's scratchpad.
func (p *Platform) DMACycles(coreID, bytes int) int {
	if bytes <= 0 {
		return 0
	}
	cycles := p.DMA.SetupCycles + int(float64(bytes)*p.DMA.CyclesPerByte)
	if p.NoC != nil {
		c := p.Cores[coreID]
		hops := c.TileX + c.TileY
		cycles += hops * (p.NoC.LinkCycles + p.NoC.RouterCycles)
	} else {
		cycles += p.Shared.AccessCycles
	}
	return cycles
}
