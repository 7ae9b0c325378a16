package adl

import "fmt"

// XentiumPlatform models a Recore Xentium-style DSP many-core: a flexible
// bus-based platform with per-core scratchpads and a round-robin shared
// memory bus (paper §IV-C). n is the core count.
func XentiumPlatform(n int) *Platform {
	cores := make([]Core, n)
	for i := range cores {
		cores[i] = Core{
			ID:       i,
			Kind:     "xentium",
			OpCycles: 1,
			SPM:      SPM{SizeBytes: 64 << 10, LatencyCycles: 2},
		}
	}
	p := &Platform{
		Name:   fmt.Sprintf("recore-xentium%d", n),
		Cores:  cores,
		Shared: SharedMemory{SizeBytes: 16 << 20, AccessCycles: 18},
		Bus:    &Bus{Arbitration: ArbRoundRobin, SlotCycles: 8},
		DMA:    DMA{SetupCycles: 40, CyclesPerByte: 0.25},
	}
	if err := p.Validate(); err != nil {
		panic("adl.XentiumPlatform: " + err.Error())
	}
	return p
}

// XentiumTDMPlatform is the Xentium platform with TDM bus arbitration
// (fully composable variant, used by the arbitration ablation).
func XentiumTDMPlatform(n int) *Platform {
	p := XentiumPlatform(n)
	p.Name = fmt.Sprintf("recore-xentium%d-tdm", n)
	p.Bus.Arbitration = ArbTDM
	if err := p.Validate(); err != nil {
		panic("adl.XentiumTDMPlatform: " + err.Error())
	}
	return p
}

// Leon3TilePlatform models a KIT-style tile architecture: Leon3-class
// cores on a width x height mesh with an invasive-NoC-style
// weighted-round-robin interconnect providing latency guarantees
// (paper §IV-C, ref [12]). Cores fill the mesh row-major; tile (0, 0)
// hosts the shared memory controller.
func Leon3TilePlatform(width, height int) *Platform {
	n := width * height
	cores := make([]Core, n)
	for i := range cores {
		cores[i] = Core{
			ID:       i,
			Kind:     "leon3",
			OpCycles: 2, // simpler in-order core: 2 cycles per op unit
			SPM:      SPM{SizeBytes: 32 << 10, LatencyCycles: 1},
			TileX:    i % width,
			TileY:    i / width,
		}
	}
	p := &Platform{
		Name:   fmt.Sprintf("kit-leon3-tile%dx%d", width, height),
		Cores:  cores,
		Shared: SharedMemory{SizeBytes: 64 << 20, AccessCycles: 12},
		NoC: &NoCSpec{
			Width: width, Height: height,
			LinkCycles: 2, RouterCycles: 3,
			FlitBytes: 8, WRRWeight: 4, MaxPacketFlits: 16,
		},
		DMA: DMA{SetupCycles: 60, CyclesPerByte: 0.5},
	}
	if err := p.Validate(); err != nil {
		panic("adl.Leon3TilePlatform: " + err.Error())
	}
	return p
}

// HeteroPlatform models a heterogeneous bus-based platform in the spirit
// of the "IP-agnostic" Recore many-core (paper §IV-C): fast DSP-class
// cores (1 cycle/op, large SPM) next to slow control-class cores
// (3 cycles/op, small SPM). The WCET-aware mapper must exploit the
// per-core bounds.
func HeteroPlatform(fast, slow int) *Platform {
	n := fast + slow
	cores := make([]Core, n)
	for i := 0; i < fast; i++ {
		cores[i] = Core{
			ID: i, Kind: "xentium", OpCycles: 1,
			SPM: SPM{SizeBytes: 64 << 10, LatencyCycles: 2},
		}
	}
	for i := fast; i < n; i++ {
		cores[i] = Core{
			ID: i, Kind: "arm-m", OpCycles: 3,
			SPM: SPM{SizeBytes: 16 << 10, LatencyCycles: 2},
		}
	}
	p := &Platform{
		Name:   fmt.Sprintf("hetero-%df%ds", fast, slow),
		Cores:  cores,
		Shared: SharedMemory{SizeBytes: 16 << 20, AccessCycles: 18},
		Bus:    &Bus{Arbitration: ArbRoundRobin, SlotCycles: 8},
		DMA:    DMA{SetupCycles: 40, CyclesPerByte: 0.25},
	}
	if err := p.Validate(); err != nil {
		panic("adl.HeteroPlatform: " + err.Error())
	}
	return p
}

// maxBuiltinCores bounds the core count a built-in platform name may
// spell. Names arrive in requests, so Builtin checks every parsed count
// against it before it multiplies, adds or builds anything.
const maxBuiltinCores = 256

// Builtin returns a built-in platform by name, or nil. Recognized names:
// "xentium<N>", "xentium<N>-tdm", "leon3-<W>x<H>", "hetero-<F>f<S>s",
// each spelled exactly as the platform names itself: no sign, leading
// zero or trailing text, and with at most maxBuiltinCores cores.
func Builtin(name string) *Platform {
	var n, w, h, f, s int
	if spells(name, "xentium%d-tdm", &n) && n > 0 && n <= maxBuiltinCores {
		return XentiumTDMPlatform(n)
	}
	if spells(name, "xentium%d", &n) && n > 0 && n <= maxBuiltinCores {
		return XentiumPlatform(n)
	}
	if spells(name, "leon3-%dx%d", &w, &h) && w > 0 && h > 0 &&
		w <= maxBuiltinCores && h <= maxBuiltinCores && w*h <= maxBuiltinCores {
		return Leon3TilePlatform(w, h)
	}
	if spells(name, "hetero-%df%ds", &f, &s) && f >= 0 && s >= 0 &&
		f <= maxBuiltinCores && s <= maxBuiltinCores && f+s > 0 && f+s <= maxBuiltinCores {
		return HeteroPlatform(f, s)
	}
	return nil
}

// spells scans name with format into ns and reports whether name is
// what format renders for them. The re-render check rejects what
// fmt.Sscanf lets through: text after the last verb, signs and leading
// zeros.
func spells(name, format string, ns ...*int) bool {
	args := make([]any, len(ns))
	for i, n := range ns {
		args[i] = n
	}
	if _, err := fmt.Sscanf(name, format, args...); err != nil {
		return false
	}
	for i, n := range ns {
		args[i] = *n
	}
	return fmt.Sprintf(format, args...) == name
}

// BuiltinNames lists example names accepted by Builtin, for help output.
func BuiltinNames() []string {
	return []string{"xentium1", "xentium2", "xentium4", "xentium8", "xentium16",
		"xentium4-tdm", "leon3-2x2", "leon3-4x4", "hetero-2f2s"}
}
