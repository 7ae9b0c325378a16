// Package usecases provides the ARGO validation applications (paper §IV)
// as scil/Xcos models plus deterministic synthetic input generators:
//
//   - EGPWS: Enhanced Ground Proximity Warning System (aerospace) —
//     terrain smoothing, slope analysis, and a multi-bearing look-ahead
//     clearance sweep over a terrain database, producing per-sector risk
//     and alert levels.
//   - WEAA: Wake Encounter Avoidance and Advisory (aerospace) — induced
//     velocity prediction from a set of wake vortex segments, conflict
//     detection, and scoring of candidate evasion trajectories.
//   - POLKA: polarization-camera inspection (industrial image
//     processing) — 2x2 polarization demosaic, Stokes parameters,
//     degree/angle of linear polarization, and tile-level stress
//     detection for in-line glass inspection.
//
// The original project used proprietary terrain databases, flight data
// and camera frames on FPGA platforms; here the computational pipelines
// are reproduced faithfully in the scil subset and the inputs are
// replaced by deterministic synthetic generators with the same structure
// (see DESIGN.md, substitutions table).
package usecases

import (
	"fmt"
	"math"

	"argo/internal/ir"
	"argo/internal/scil"
)

// UseCase bundles one validation application.
type UseCase struct {
	Name        string
	Description string
	// Source is the scil model; Entry its top-level function.
	Source string
	Entry  string
	// Args are the entry argument specs (shapes fixed by Size).
	Args []ir.ArgSpec
	// Inputs generates a deterministic input set for a seed.
	Inputs func(seed int64) [][]float64
	// Period is the real-time activation period in cycles (the deadline
	// the system bound is compared against in reports).
	Period int64
}

// Program parses and checks the use case's source.
func (u *UseCase) Program() (*scil.Program, error) {
	p, err := scil.Parse(u.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", u.Name, err)
	}
	if errs := scil.Check(p, scil.CheckWCET); len(errs) > 0 {
		return nil, fmt.Errorf("%s: %v", u.Name, errs[0])
	}
	return p, nil
}

// All returns the three ARGO use cases at their default sizes.
func All() []*UseCase {
	return []*UseCase{EGPWS(), WEAA(), POLKA()}
}

// ByName returns a use case by (lower-case) name, or nil.
func ByName(name string) *UseCase {
	for _, u := range All() {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// lcg is a small deterministic generator for synthetic inputs.
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *lcg) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / float64(1<<53)
}

// --- EGPWS -------------------------------------------------------------------

// egpwsGrid is the terrain database edge length.
const egpwsGrid = 48

// egpwsSrc: terrain conditioning + look-ahead clearance sweep.
const egpwsSrc = `
// Enhanced Ground Proximity Warning System: terrain-ahead alerting.
// terrain: G x G elevation grid (metres); state: 1 x 6 vector
// [x, y, altitude, vx, vy, vz] in grid units / metres.

function s = egpws_smooth(t)
  g = size(t, 1)
  s = zeros(g, g)
  for i = 1:g
    for j = 1:g
      acc = 0
      cnt = 0
      for di = -1:1
        for dj = -1:1
          ii = i + di
          jj = j + dj
          if ii >= 1 & ii <= g & jj >= 1 & jj <= g then
            acc = acc + t(ii, jj)
            cnt = cnt + 1
          end
        end
      end
      s(i, j) = acc / cnt
    end
  end
endfunction

function m = egpws_slope(t)
  g = size(t, 1)
  m = zeros(g, g)
  for i = 2:g-1
    for j = 2:g-1
      gx = (t(i, j + 1) - t(i, j - 1)) / 2
      gy = (t(i + 1, j) - t(i - 1, j)) / 2
      m(i, j) = sqrt(gx * gx + gy * gy)
    end
  end
endfunction

function e = egpws_sample(t, x, y)
  // Bilinear terrain sample with edge clamping.
  g = size(t, 1)
  ix = min(max(floor(x), 1), g - 1)
  iy = min(max(floor(y), 1), g - 1)
  fx = min(max(x - ix, 0), 1)
  fy = min(max(y - iy, 0), 1)
  e00 = t(iy, ix)
  e01 = t(iy, ix + 1)
  e10 = t(iy + 1, ix)
  e11 = t(iy + 1, ix + 1)
  e = e00 * (1 - fx) * (1 - fy) + e01 * fx * (1 - fy) + e10 * (1 - fx) * fy + e11 * fx * fy
endfunction

function risk = egpws_sweep(terrain, slope, state)
  // Sweep 8 bearings around the velocity vector, 20 look-ahead steps
  // each; risk per sector combines clearance deficit and terrain slope.
  // The bearing loop is data-parallel: each sector writes only its own
  // risk entry (the worst-sector reduction is a separate stage).
  nb = 8
  ns = 20
  risk = zeros(1, nb)
  x0 = state(1, 1)
  y0 = state(1, 2)
  alt = state(1, 3)
  vx = state(1, 4)
  vy = state(1, 5)
  vz = state(1, 6)
  speed = sqrt(vx * vx + vy * vy) + 0.001
  hdg = atan2(vy, vx)
  for b = 1:nb
    bearing = hdg + (b - (nb + 1) / 2) * 0.15
    cb = cos(bearing)
    sb = sin(bearing)
    sector = 0
    for s = 1:ns
      dist = s * 0.75
      px = x0 + cb * speed * dist
      py = y0 + sb * speed * dist
      palt = alt + vz * dist
      elev = egpws_sample(terrain, px, py)
      grad = egpws_sample(slope, px, py)
      clearance = palt - elev
      required = 60 + 8 * dist + 4 * grad
      deficit = required - clearance
      if deficit > 0 then
        contrib = deficit * (1 + 1 / (0.2 + dist * 0.05))
        if contrib > sector then
          sector = contrib
        end
      end
    end
    risk(1, b) = sector
  end
endfunction

function [risk, worst, alert] = egpws(terrain, state)
  sm = egpws_smooth(terrain)
  sl = egpws_slope(sm)
  risk = egpws_sweep(sm, sl, state)
  worst = maxval(risk)
  alert = 0
  if worst > 40 then
    alert = 1
  end
  if worst > 120 then
    alert = 2
  end
endfunction`

// EGPWS returns the ground-proximity warning use case.
func EGPWS() *UseCase {
	g := egpwsGrid
	return &UseCase{
		Name: "egpws",
		Description: "Enhanced Ground Proximity Warning System: terrain " +
			"conditioning, slope analysis, 8-sector look-ahead clearance sweep",
		Source: egpwsSrc,
		Entry:  "egpws",
		Args:   []ir.ArgSpec{ir.MatrixArg(g, g), ir.MatrixArg(1, 6)},
		Period: 3_000_000,
		Inputs: func(seed int64) [][]float64 {
			rng := newLCG(seed)
			terrain := make([]float64, g*g)
			// Deterministic ridge-and-valley terrain: sums of sines plus
			// noise, like a coarse DEM tile.
			p1 := rng.next() * 6
			p2 := rng.next() * 6
			amp := 120 + rng.next()*120
			// The first ridge term separates: one sine per column, one
			// cosine per row.
			var colSin [egpwsGrid]float64
			for j := range colSin {
				x := float64(j) / float64(g)
				colSin[j] = math.Sin(4*x*math.Pi + p1)
			}
			for i := 0; i < g; i++ {
				y := float64(i) / float64(g)
				rowCos := math.Cos(3*y*math.Pi + p2)
				for j := 0; j < g; j++ {
					x := float64(j) / float64(g)
					h := amp * (0.5*colSin[j]*rowCos +
						0.3*math.Sin(9*(x+y)*math.Pi+p1))
					h += 250 + 60*rng.next()
					if h < 0 {
						h = 0
					}
					terrain[i*g+j] = h
				}
			}
			state := []float64{
				4 + rng.next()*float64(g-8), // x
				4 + rng.next()*float64(g-8), // y
				280 + rng.next()*320,        // altitude
				-1 + 2*rng.next(),           // vx
				-1 + 2*rng.next(),           // vy
				-6 + 4*rng.next(),           // vz (descending bias)
			}
			return [][]float64{terrain, state}
		},
	}
}

// --- WEAA --------------------------------------------------------------------

const (
	weaaVortices   = 6
	weaaCandidates = 8
	weaaSteps      = 16
)

const weaaSrc = `
// Wake Encounter Avoidance and Advisory: predict wake-vortex induced
// hazard along candidate evasion trajectories and pick the safest one.
// vortices: M x 5 rows [x, y, z, circulation, decay]; state: 1 x 6
// [x, y, z, vx, vy, vz]; cands: K x 3 rows [dheading, dclimb, speedf].

function h = weaa_hazard(vortices, px, py, pz)
  m = size(vortices, 1)
  h = 0
  for v = 1:m
    dx = px - vortices(v, 1)
    dy = py - vortices(v, 2)
    dz = pz - vortices(v, 3)
    r2 = dx * dx + dy * dy + dz * dz + 0.25
    r = sqrt(r2)
    circ = vortices(v, 4)
    decay = vortices(v, 5)
    induced = circ / (6.2831853 * r) * (1 - exp(-1.2566 * r2 / (decay + 0.05)))
    if induced > h then
      h = induced
    end
  end
endfunction

function [scores, best, minhaz] = weaa(vortices, state, cands)
  k = size(cands, 1)
  ns = 16
  scores = zeros(1, k)
  x0 = state(1, 1)
  y0 = state(1, 2)
  z0 = state(1, 3)
  vx = state(1, 4)
  vy = state(1, 5)
  vz = state(1, 6)
  hdg0 = atan2(vy, vx)
  spd0 = sqrt(vx * vx + vy * vy) + 0.001
  for c = 1:k
    dh = cands(c, 1)
    dc = cands(c, 2)
    sf = cands(c, 3)
    hdg = hdg0 + dh
    spd = spd0 * sf
    chdg = cos(hdg)
    shdg = sin(hdg)
    hazard = 0
    for s = 1:ns
      dt = s * 0.5
      px = x0 + chdg * spd * dt
      py = y0 + shdg * spd * dt
      pz = z0 + (vz + dc) * dt
      h = weaa_hazard(vortices, px, py, pz)
      if h > hazard then
        hazard = h
      end
    end
    // Deviation penalty keeps the advisory close to the nominal path.
    penalty = 2 * abs(dh) + 0.5 * abs(dc) + 3 * abs(1 - sf)
    scores(1, c) = hazard * 10 + penalty
  end
  best = 1
  minhaz = scores(1, 1)
  for c = 2:k
    if scores(1, c) < minhaz then
      minhaz = scores(1, c)
      best = c
    end
  end
endfunction`

// WEAA returns the wake-encounter avoidance use case.
func WEAA() *UseCase {
	return &UseCase{
		Name: "weaa",
		Description: "Wake Encounter Avoidance and Advisory: vortex-induced " +
			"hazard prediction, conflict detection, evasion trajectory scoring",
		Source: weaaSrc,
		Entry:  "weaa",
		Args: []ir.ArgSpec{
			ir.MatrixArg(weaaVortices, 5),
			ir.MatrixArg(1, 6),
			ir.MatrixArg(weaaCandidates, 3),
		},
		Period: 1_500_000,
		Inputs: func(seed int64) [][]float64 {
			rng := newLCG(seed)
			vort := make([]float64, weaaVortices*5)
			for v := 0; v < weaaVortices; v++ {
				vort[v*5+0] = 5 + rng.next()*40   // x
				vort[v*5+1] = -20 + rng.next()*40 // y
				vort[v*5+2] = -8 + rng.next()*16  // z
				vort[v*5+3] = 80 + rng.next()*220 // circulation
				vort[v*5+4] = 0.5 + rng.next()*4  // decay age
			}
			state := []float64{0, 0, 0, 6 + rng.next()*4, -2 + rng.next()*4, -0.5 + rng.next()}
			cands := make([]float64, weaaCandidates*3)
			for c := 0; c < weaaCandidates; c++ {
				cands[c*3+0] = -0.6 + 1.2*float64(c)/float64(weaaCandidates-1) // heading delta
				cands[c*3+1] = -2 + rng.next()*4                               // climb delta
				cands[c*3+2] = 0.85 + rng.next()*0.3                           // speed factor
			}
			return [][]float64{vort, state, cands}
		},
	}
}

// --- POLKA -------------------------------------------------------------------

// polkaSize is the mosaic frame edge (sub-images are half this).
const polkaSize = 96

const polkaSrc = `
// POLKA polarization-camera inspection: 2x2 polarization mosaic
// (0/45/90/135 degrees), Stokes parameters, degree of linear
// polarization, and tile-level residual-stress detection for in-line
// glass container inspection.

function [dolp, aop] = polka_polarimetry(frame)
  h = size(frame, 1) / 2
  w = size(frame, 2) / 2
  dolp = zeros(h, w)
  aop = zeros(h, w)
  for i = 1:h
    for j = 1:w
      i0 = frame(2 * i - 1, 2 * j - 1)
      i45 = frame(2 * i - 1, 2 * j)
      i90 = frame(2 * i, 2 * j - 1)
      i135 = frame(2 * i, 2 * j)
      s0 = (i0 + i45 + i90 + i135) / 2
      s1 = i0 - i90
      s2 = i45 - i135
      dolp(i, j) = sqrt(s1 * s1 + s2 * s2) / max(s0, 0.001)
      aop(i, j) = atan2(s2, s1) / 2
    end
  end
endfunction

function s = polka_smooth(u)
  h = size(u, 1)
  w = size(u, 2)
  s = zeros(h, w)
  for i = 1:h
    for j = 1:w
      acc = 0
      cnt = 0
      for di = -1:1
        for dj = -1:1
          ii = i + di
          jj = j + dj
          if ii >= 1 & ii <= h & jj >= 1 & jj <= w then
            acc = acc + u(ii, jj)
            cnt = cnt + 1
          end
        end
      end
      s(i, j) = acc / cnt
    end
  end
endfunction

function tiles = polka_tiles(dolp)
  // 4x4 pixel tiles: per-tile mean smoothed DoLP (data-parallel).
  h = size(dolp, 1)
  w = size(dolp, 2)
  th = h / 4
  tw = w / 4
  tiles = zeros(th, tw)
  for ti = 1:th
    for tj = 1:tw
      acc = 0
      for di = 1:4
        for dj = 1:4
          acc = acc + dolp((ti - 1) * 4 + di, (tj - 1) * 4 + dj)
        end
      end
      tiles(ti, tj) = acc / 16
    end
  end
endfunction

function [defect, peak] = polka_classify(tiles)
  // Reduction stage: defect count and peak tile stress.
  th = size(tiles, 1)
  tw = size(tiles, 2)
  defect = 0
  peak = 0
  for ti = 1:th
    for tj = 1:tw
      m = tiles(ti, tj)
      if m > peak then
        peak = m
      end
      if m > 0.18 then
        defect = defect + 1
      end
    end
  end
endfunction

function [tiles, defect, peak, aop] = polka(frame)
  [dolp, aop] = polka_polarimetry(frame)
  sm = polka_smooth(dolp)
  tiles = polka_tiles(sm)
  [defect, peak] = polka_classify(tiles)
endfunction`

// POLKA returns the industrial polarization-inspection use case.
func POLKA() *UseCase {
	n := polkaSize
	return &UseCase{
		Name: "polka",
		Description: "POLKA polarization camera: demosaic, Stokes/DoLP/AoP " +
			"polarimetry, tile-level residual-stress detection",
		Source: polkaSrc,
		Entry:  "polka",
		Args:   []ir.ArgSpec{ir.MatrixArg(n, n)},
		Period: 2_000_000,
		Inputs: func(seed int64) [][]float64 {
			rng := newLCG(seed)
			frame := make([]float64, n*n)
			// Synthetic glass container frame: unpolarized background
			// with an elliptical stressed region of elevated, oriented
			// polarization.
			cx := 0.3 + 0.4*rng.next()
			cy := 0.3 + 0.4*rng.next()
			strength := 0.04 + 0.55*rng.next() // some containers are clean, some defective
			angle := rng.next() * math.Pi
			cos2, sin2 := math.Cos(2*angle), math.Sin(2*angle)
			noise := func() float64 { return rng.next()*4 - 2 }
			for i := 0; i < n/2; i++ {
				for j := 0; j < n/2; j++ {
					x := float64(j) / float64(n/2)
					y := float64(i) / float64(n/2)
					d := math.Hypot((x-cx)*1.3, y-cy)
					pol := strength * math.Exp(-d*d*18)
					s0 := 120 + 30*rng.next()
					s1 := pol * s0 * cos2
					s2 := pol * s0 * sin2
					// Inverse of the Stokes extraction above.
					frame[(2*i)*n+(2*j)] = (s0+s1)/2 + noise()     // I0
					frame[(2*i)*n+(2*j+1)] = (s0+s2)/2 + noise()   // I45
					frame[(2*i+1)*n+(2*j)] = (s0-s1)/2 + noise()   // I90
					frame[(2*i+1)*n+(2*j+1)] = (s0-s2)/2 + noise() // I135
				}
			}
			return [][]float64{frame}
		},
	}
}
