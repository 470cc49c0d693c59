//! The hydrodynamics kernels: EOS, artificial viscosity, acceleration,
//! PdV, and conservative donor-cell advection.
//!
//! Every kernel returns the [`WorkCounters`] it accumulated so the in situ
//! power experiments can characterize the simulation side of the coupled
//! workload. Per-item instruction/flop estimates are rough static costs of
//! the inner loops; the *counts* (cells, faces, nodes touched) are exact.
//!
//! # Five sweeps a step
//!
//! A step is five parallel loops, one `par` fork each: **A** (cells: EOS
//! → divergence → viscosity → stress, [`eos_and_viscosity`]), **B**
//! (nodes: [`acceleration`]), **C** (cells: divergence of the new
//! velocities → PdV, `pdv`), **D** (all three face spaces: the donor
//! fluxes) and **E** (cells: apply them; D and E are [`advect`]). A
//! cell's divergence, viscosity and stress read only that cell's values,
//! and its divergence only its own corner nodes, so one pass computes
//! each chain with every operand and operation of the phase-at-a-time
//! sequence. Each sweep still reports every phase it does under that
//! phase's name, with the phase's own counters.
//!
//! # Index spaces
//!
//! Five x-fastest boxes over a grid of `cx × cy × cz` cells (`nx = cx + 1`
//! nodes per row, and so on). A loop over one of them walks
//! `rows` (`src/rows.rs`) of its id range and reaches into the others by
//! row base plus `i`, then by strides — nothing is decoded per item.
//!
//! | space   | dims             | `+j` stride | `+k` stride     | holds                    |
//! |---------|------------------|-------------|-----------------|--------------------------|
//! | cells   | `cx, cy, cz`     | `cx`        | `cx · cy`       | ρ, e, p, q, c_s, stress  |
//! | nodes   | `nx, ny, nz`     | `nx`        | `nx · ny`       | velocity                 |
//! | x faces | `cx + 1, cy, cz` | `cx + 1`    | `(cx + 1) · cy` | `flux_*`, first part     |
//! | y faces | `cx, cy + 1, cz` | `cx`        | `cx · (cy + 1)` | `flux_*`, second part    |
//! | z faces | `cx, cy, cz + 1` | `cx`        | `cx · cy`       | `flux_*`, third part     |
//!
//! Item `(i, j, k)` of any space has the node `(i, j, k)` as its low
//! corner and, where it exists, the cell `(i, j, k)` on its high side;
//! a face's low-side cell is one cell stride of its axis back. Node
//! `(i, j, k)` touches the cells `(i − 1 ..= i, j − 1 ..= j, k − 1 ..= k)`
//! that exist.

use crate::eos;
use crate::rows::{rows, Row, MIN_LEN};
use crate::state::{cell_spans, node_mean, sum_at, State};
use std::ops::Range;
use vizmesh::{par, UniformGrid, Vec3, WorkCounters};

/// Scratch buffers reused across steps to avoid per-step allocation.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Cell-centered total stress `p + q`, written by sweep A and read by
    /// the acceleration and PdV.
    pub stress: Vec<f64>,
    /// Mass flux through the x, y and z faces, the three face spaces end
    /// to end (see [`face_counts`]).
    pub(crate) flux_mass: Vec<f64>,
    /// Energy (ρe) flux, laid out like `flux_mass`.
    pub(crate) flux_energy: Vec<f64>,
    /// Post-advection density / energy staging; swapped with the state's
    /// arrays at the end of [`advect`].
    pub(crate) new_density: Vec<f64>,
    pub(crate) new_energy: Vec<f64>,
}

impl Scratch {
    pub fn for_state(state: &State) -> Self {
        let nc = state.grid.num_cells();
        let faces = face_counts(state.grid.cell_dims()).iter().sum();
        Scratch {
            stress: vec![0.0; nc],
            flux_mass: vec![0.0; faces],
            flux_energy: vec![0.0; faces],
            new_density: vec![0.0; nc],
            new_energy: vec![0.0; nc],
        }
    }
}

/// The sizes of the x, y and z face spaces.
fn face_counts([cx, cy, cz]: [usize; 3]) -> [usize; 3] {
    [(cx + 1) * cy * cz, cx * (cy + 1) * cz, cx * cy * (cz + 1)]
}

/// A flux array cut into its x, y and z face spaces.
fn face_spaces(flux: &[f64], [x, y, _]: [usize; 3]) -> [&[f64]; 3] {
    let (fx, rest) = flux.split_at(x);
    let (fy, fz) = rest.split_at(y);
    [fx, fy, fz]
}

/// Corner index groups of a hexahedral cell (see
/// [`vizmesh::GridCell::point_ids`]): `[negative-side, positive-side]`
/// corner slots per axis.
const X_NEG: [usize; 4] = [0, 3, 4, 7];
const X_POS: [usize; 4] = [1, 2, 5, 6];
const Y_NEG: [usize; 4] = [0, 1, 4, 5];
const Y_POS: [usize; 4] = [2, 3, 6, 7];
const Z_NEG: [usize; 4] = [0, 1, 2, 3];
const Z_POS: [usize; 4] = [4, 5, 6, 7];

/// The node rows below and above a row of cells: what the cells'
/// velocity divergence reads, in sweeps A and C.
struct DivergenceRow<'a> {
    lo: &'a [Vec3],
    y: &'a [Vec3],
    z: &'a [Vec3],
    yz: &'a [Vec3],
    spacing: Vec3,
}

impl<'a> DivergenceRow<'a> {
    #[inline]
    fn new(grid: &UniformGrid, vel: &'a [Vec3], row: Row) -> Self {
        let [nx, ny, _] = grid.point_dims();
        // The four node rows, from the cells' low corner nodes on.
        let p = row.i + nx * (row.j + ny * row.k);
        let line = |from: usize| &vel[from..from + row.len + 1];
        DivergenceRow {
            lo: line(p),
            y: line(p + nx),
            z: line(p + nx * ny),
            yz: line(p + nx + nx * ny),
            spacing: grid.spacing(),
        }
    }

    /// The divergence of the row's `n`-th cell.
    // Left to itself the compiler keeps this call out of line in the
    // fused sweeps, and they ran about 8× slower on a 2-vCPU x86-64 host.
    #[inline(always)]
    fn at(&self, n: usize) -> f64 {
        let DivergenceRow {
            lo,
            y,
            z,
            yz,
            spacing: s,
        } = self;
        // Hexahedron corner order.
        let corners = [
            lo[n],
            lo[n + 1],
            y[n + 1],
            y[n],
            z[n],
            z[n + 1],
            yz[n + 1],
            yz[n],
        ];
        let avg = |slots: [usize; 4], axis: usize| {
            let [a, b, c, d] = slots.map(|slot| corners[slot][axis]);
            (a + b + c + d) * 0.25
        };
        let dudx = (avg(X_POS, 0) - avg(X_NEG, 0)) / s.x;
        let dvdy = (avg(Y_POS, 1) - avg(Y_NEG, 1)) / s.y;
        let dwdz = (avg(Z_POS, 2) - avg(Z_NEG, 2)) / s.z;
        dudx + dvdy + dwdz
    }
}

/// Counters of `n` items at the given static per-item costs.
fn counters(n: usize, instr: u64, flops: u64, read: u64, written: u64) -> WorkCounters {
    let mut w = WorkCounters::new();
    w.tally(n as u64, instr, flops, read, written);
    w
}

/// The divergence's counters over `cells` cells (sweeps A and C).
fn divergence_counters(cells: usize) -> WorkCounters {
    counters(cells, 60, 27, 8 * 24, 8)
}

/// Sweep A, per cell: pressure and sound speed from the ideal-gas EOS;
/// the velocity divergence; the Von Neumann–Richtmyer artificial
/// viscosity with a linear term, `q = c₂ ρ (Δ div u)² + c₁ ρ c_s Δ
/// |div u|` in compression and 0 otherwise; and the total stress `p + q`
/// into `stress`. Returns the counters of `ideal_gas`, `divergence` and
/// `viscosity`, in that order (the stress sum is the acceleration's).
pub fn eos_and_viscosity(
    state: &mut State,
    stress: &mut [f64],
) -> [(&'static str, WorkCounters); 3] {
    const C1: f64 = 0.5;
    const C2: f64 = 2.0;
    let cdims = state.grid.cell_dims();
    let dx = state.grid.spacing().min_component();
    let (grid, vel) = (&state.grid, &state.velocity);
    let (density, energy) = (&state.density, &state.energy);
    let pq = (&mut state.pressure[..], &mut state.soundspeed[..]);
    let cells = (pq, (&mut state.viscosity[..], stress));
    par::for_each_chunk_zip(cells, MIN_LEN, |cells, ((p, cs), (q, t))| {
        for row in rows(cdims, cells) {
            let div = DivergenceRow::new(grid, vel, row);
            let (rho, e) = (&density[row.id..][..row.len], &energy[row.id..][..row.len]);
            let (p, cs, q, t) = (row.of(p), row.of(cs), row.of(q), row.of(t));
            for n in 0..row.len {
                let (rho, d) = (rho[n], div.at(n));
                p[n] = eos::pressure(rho, e[n]);
                cs[n] = eos::sound_speed(rho, p[n]);
                q[n] = if d < 0.0 {
                    let dd = dx * d;
                    C2 * rho * dd * dd + C1 * rho * cs[n] * dx * d.abs()
                } else {
                    0.0
                };
                t[n] = p[n] + q[n];
            }
        }
    });
    let nc = state.density.len();
    let mut eos = counters(nc, 14, 6, 16, 16);
    eos.working_set_bytes = (nc * 8 * 4) as u64;
    [
        ("ideal_gas", eos),
        ("divergence", divergence_counters(nc)),
        ("viscosity", counters(nc, 18, 8, 24, 8)),
    ]
}

/// Sweep B: accelerate the node velocities by the gradient of the cells'
/// total stress (`p + q`, sweep A's `stress`) and apply reflective
/// boundary conditions (zero normal velocity on the domain faces).
pub fn acceleration(state: &mut State, stress: &[f64], dt: f64) -> WorkCounters {
    let cdims = state.grid.cell_dims();
    let pdims = state.grid.point_dims();
    let [cx, cy, _] = cdims;
    let cstride = [1, cx, cx * cy];
    let (sy, sz) = (cstride[1], cstride[2]);
    let spacing = state.grid.spacing();
    let density = &state.density;

    // A boundary node's mean stress over the cells at `side` on `axis`
    // that touch it: up to four, the other two axes over the `spans` of
    // cells the grid has there, the later one innermost.
    let side_mean = |axis: usize, side: usize, spans: &[[usize; 2]; 3]| -> f64 {
        let (a, b) = [(1, 2), (0, 2), (0, 1)][axis];
        let ([a0, a1], [b0, b1]) = (spans[a], spans[b]);
        let base = side * cstride[axis];
        let mut sum = 0.0;
        for ca in a0..a1 {
            for cb in b0..b1 {
                sum += stress[base + ca * cstride[a] + cb * cstride[b]];
            }
        }
        sum / ((a1 - a0) * (b1 - b0)) as f64
    };

    par::for_each_chunk_zip(&mut state.velocity[..], MIN_LEN, |nodes, chunk| {
        for row in rows(pdims, nodes) {
            let (j, k) = (row.j, row.k);
            let inner_row = (1..pdims[1] - 1).contains(&j) && (1..pdims[2] - 1).contains(&k);
            // Cell (0, j, k), were there one.
            let cell0 = cx * (j + cy * k);
            for (n, u) in row.of(chunk).iter_mut().enumerate() {
                let i = row.i + n;
                if inner_row && (1..pdims[0] - 1).contains(&i) {
                    // All eight cells around the node exist: `c` is
                    // (i − 1, j − 1, k − 1), the rest are named by the
                    // axes they are one step up on. Each side is summed
                    // with the later of its two axes innermost, the
                    // density as `node_mean` sums it (which would find
                    // the same eight cells again).
                    let c = cell0 + i - 1 - sy - sz;
                    let (x, y, z) = (c + 1, c + sy, c + sz);
                    let (xy, xz, yz, xyz) = (x + sy, x + sz, y + sz, x + sy + sz);
                    let rho = (sum_at(density, [c, x, y, xy, z, xz, yz, xyz]) / 8.0).max(1e-12);
                    let side = |cells: [usize; 4]| sum_at(stress, cells) / 4.0;
                    let grad = (side([x, xz, xy, xyz]) - side([c, z, y, yz])) / spacing.x;
                    u.x -= dt * grad / rho;
                    let grad = (side([y, yz, xy, xyz]) - side([c, z, x, xz])) / spacing.y;
                    u.y -= dt * grad / rho;
                    let grad = (side([z, yz, xz, xyz]) - side([c, y, x, xy])) / spacing.z;
                    u.z -= dt * grad / rho;
                    continue;
                }
                // A boundary node: fewer cells around it, and on each
                // axis it is the end of, the reflective condition (zero
                // normal velocity) instead of a gradient.
                let node = [i, j, k];
                let rho = node_mean(density, cdims, node).max(1e-12);
                let spans = cell_spans(cdims, node);
                let next = [0, 1, 2].map(|axis| {
                    let at = node[axis];
                    if (1..pdims[axis] - 1).contains(&at) {
                        let grad = (side_mean(axis, at, &spans) - side_mean(axis, at - 1, &spans))
                            / spacing[axis];
                        u[axis] - dt * grad / rho
                    } else {
                        0.0
                    }
                });
                *u = next.into();
            }
        }
    });

    counters(state.velocity.len(), 140, 45, 8 * 24, 24)
}

/// Sweep C, per cell: the divergence of the accelerated velocities and
/// the PdV internal-energy update from it, `de/dt = −(p + q) ∇·u / ρ`,
/// with `p + q` read from sweep A's `stress` (the acceleration changes
/// neither). Energy is floored at a small positive value to keep the EOS
/// sane in strong expansions. Returns the counters of `divergence` and
/// `pdv`, in that order.
pub(crate) fn pdv(state: &mut State, stress: &[f64], dt: f64) -> [(&'static str, WorkCounters); 2] {
    const E_FLOOR: f64 = 1e-9;
    let cdims = state.grid.cell_dims();
    let (grid, vel, density) = (&state.grid, &state.velocity, &state.density);
    par::for_each_chunk_zip(&mut state.energy[..], MIN_LEN, |cells, chunk| {
        for row in rows(cdims, cells) {
            let div = DivergenceRow::new(grid, vel, row);
            let (t, rho) = (&stress[row.id..][..row.len], &density[row.id..][..row.len]);
            for (n, e) in row.of(chunk).iter_mut().enumerate() {
                let work = t[n] * div.at(n) / rho[n].max(1e-12);
                *e = (*e - dt * work).max(E_FLOOR);
            }
        }
    });
    let nc = state.energy.len();
    [
        ("divergence", divergence_counters(nc)),
        ("pdv", counters(nc, 16, 7, 40, 8)),
    ]
}

/// Donor-cell mass and energy flux through the faces `faces` of the
/// space normal to `AXIS`, into `flux_mass` and `flux_energy` (one entry
/// per face of the range): the face-normal velocity is the mean of the
/// face's four nodes, the donor the cell it blows out of. Faces on the
/// domain boundary carry none.
fn face_flux<const AXIS: usize>(
    state: &State,
    faces: Range<usize>,
    flux_mass: &mut [f64],
    flux_energy: &mut [f64],
    area: f64,
    dt: f64,
) {
    let cdims = state.grid.cell_dims();
    let [cx, cy, _] = cdims;
    let [nx, ny, _] = state.grid.point_dims();
    let mut fdims = cdims;
    fdims[AXIS] += 1;
    // The face's other three nodes are one node stride along each of
    // the other two axes (earlier axis first) and along both.
    let (a, b) = [(nx, nx * ny), (1, nx * ny), (1, nx)][AXIS];
    let back = [1, cx, cx * cy][AXIS];
    let (vel, density, energy) = (&state.velocity, &state.density, &state.energy);
    for row in rows(fdims, faces) {
        // Node (0, j, k) and cell (0, j, k) of this face row.
        let node0 = nx * (row.j + ny * row.k);
        let cell0 = cx * (row.j + cy * row.k);
        let out = row.of(flux_mass).iter_mut().zip(row.of(flux_energy));
        for (n, (fm, fe)) in out.enumerate() {
            let i = row.i + n;
            let along = [i, row.j, row.k][AXIS];
            if along == 0 || along == cdims[AXIS] {
                *fm = 0.0;
                *fe = 0.0;
                continue;
            }
            let p = node0 + i;
            let un =
                0.25 * (vel[p][AXIS] + vel[p + a][AXIS] + vel[p + b][AXIS] + vel[p + a + b][AXIS]);
            let high = cell0 + i;
            let donor = if un >= 0.0 { high - back } else { high };
            let m = un * area * dt * density[donor];
            *fm = m;
            *fe = m * energy[donor];
        }
    }
}

/// Conservative first-order donor-cell (upwind) advection of mass and
/// internal energy: sweep D computes the fluxes of all three face spaces
/// (one range over the three end to end, each chunk split where it
/// crosses from one space into the next), sweep E applies them per cell.
/// Boundary faces carry zero flux, so total mass is conserved to
/// rounding.
pub fn advect(state: &mut State, scratch: &mut Scratch, dt: f64) -> WorkCounters {
    let cdims = state.grid.cell_dims();
    let [cx, cy, _] = cdims;
    let s = state.grid.spacing();
    let vol = s.x * s.y * s.z;
    let counts = face_counts(cdims);

    {
        let state = &*state;
        let (fm, fe) = (&mut scratch.flux_mass, &mut scratch.flux_energy);
        par::for_each_chunk_zip((&mut fm[..], &mut fe[..]), MIN_LEN, |faces, (fm, fe)| {
            // Each axis's space in the concatenation, in turn.
            let mut space = 0..0;
            for (axis, count) in counts.into_iter().enumerate() {
                space = space.end..space.end + count;
                let (lo, hi) = (faces.start.max(space.start), faces.end.min(space.end));
                if lo >= hi {
                    continue;
                }
                // This chunk's part of the space, in the space's own ids
                // and as offsets into the chunk.
                let ids = lo - space.start..hi - space.start;
                let at = lo - faces.start..hi - faces.start;
                let (fm, fe) = (&mut fm[at.clone()], &mut fe[at]);
                match axis {
                    0 => face_flux::<0>(state, ids, fm, fe, s.y * s.z, dt),
                    1 => face_flux::<1>(state, ids, fm, fe, s.x * s.z, dt),
                    _ => face_flux::<2>(state, ids, fm, fe, s.x * s.y, dt),
                }
            }
        });
    }
    let mut w = counters(scratch.flux_mass.len(), 46, 14, 8 * 8, 16);

    // Apply fluxes: new mass = old mass + Σ incoming − Σ outgoing.
    let fm = face_spaces(&scratch.flux_mass, counts);
    let fe = face_spaces(&scratch.flux_energy, counts);
    let (density, energy) = (&state.density, &state.energy);
    let (nd, ne) = (&mut scratch.new_density, &mut scratch.new_energy);
    par::for_each_chunk_zip((&mut nd[..], &mut ne[..]), MIN_LEN, |cells, (nd, ne)| {
        for row in rows(cdims, cells) {
            // The low face of the row's first cell in each face
            // space; the high face is one stride of that axis on.
            let (c, len) = (row.id, row.len);
            let fx = row.i + (cx + 1) * (row.j + cy * row.k);
            let fy = row.i + cx * (row.j + (cy + 1) * row.k);
            let net = |[x, y, z]: [&[f64]; 3], n: usize| {
                x[fx + n] - x[fx + n + 1] + y[fy + n] - y[fy + n + cx] + z[c + n]
                    - z[c + n + cx * cy]
            };
            let (rho, e) = (&density[c..c + len], &energy[c..c + len]);
            let out = row.of(nd).iter_mut().zip(row.of(ne));
            for (n, (nd, ne)) in out.enumerate() {
                let dm = net(fm, n);
                let de = net(fe, n);
                let mass_old = rho[n] * vol;
                let rho_e_old = rho[n] * e[n] * vol;
                let mass_new = (mass_old + dm).max(1e-12 * vol);
                let rho_e_new = (rho_e_old + de).max(0.0);
                *nd = mass_new / vol;
                *ne = (rho_e_new / mass_new).max(1e-9);
            }
        }
    });
    std::mem::swap(&mut state.density, &mut scratch.new_density);
    std::mem::swap(&mut state.energy, &mut scratch.new_energy);
    w.tally(state.density.len() as u64, 60, 26, 8 * 14, 16);
    w
}

/// CFL time-step: `dt = cfl · min(Δ / (c_s + |u| + ε))`, additionally
/// limited to grow at most 5 % per step.
pub fn calc_dt(state: &State, prev_dt: f64, cfl: f64) -> (f64, WorkCounters) {
    let g = &state.grid;
    let s = g.spacing();
    let dx = s.min_component();
    // One root, of the largest square: `sqrt` is monotone and correctly
    // rounded, so this is the largest length to the bit.
    let max_u = (state.velocity.iter().map(|u| u.length_squared()))
        .fold(0.0, f64::max)
        .sqrt();
    let max_cs = state.soundspeed.iter().copied().fold(0.0, f64::max);
    let dt = cfl * dx / (max_cs + max_u + 1e-12);
    let dt = dt.min(prev_dt * 1.05);
    let mut w = WorkCounters::new();
    w.tally(
        (state.velocity.len() + state.soundspeed.len()) as u64,
        10,
        5,
        16,
        0,
    );
    (dt, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{UniformGrid, Vec3};

    fn state(n: usize) -> (State, Scratch) {
        let s = State::quiescent(UniformGrid::cube_cells(n));
        let scratch = Scratch::for_state(&s);
        (s, scratch)
    }

    /// Every cell's divergence, as sweeps A and C compute it.
    fn divergence(s: &State) -> Vec<f64> {
        let cells = rows(s.grid.cell_dims(), 0..s.grid.num_cells());
        let row = |row: Row| {
            let div = DivergenceRow::new(&s.grid, &s.velocity, row);
            (0..row.len).map(move |n| div.at(n))
        };
        cells.flat_map(row).collect()
    }

    #[test]
    fn ideal_gas_uniform_state() {
        let (mut s, mut scr) = state(4);
        eos_and_viscosity(&mut s, &mut scr.stress);
        assert!(s.pressure.iter().all(|&p| (p - 0.4).abs() < 1e-12));
        let cs = (1.4 * 0.4f64).sqrt();
        assert!(s.soundspeed.iter().all(|&c| (c - cs).abs() < 1e-12));
    }

    #[test]
    fn divergence_zero_for_uniform_velocity() {
        let (mut s, _) = state(4);
        for u in &mut s.velocity {
            *u = Vec3::new(0.3, -0.2, 0.1);
        }
        assert!(divergence(&s).iter().all(|&d| d.abs() < 1e-12));
    }

    #[test]
    fn divergence_of_linear_expansion() {
        // u = (x, y, z) has divergence 3 everywhere.
        let (mut s, _) = state(4);
        for (id, u) in s.velocity.iter_mut().enumerate() {
            *u = s.grid.point_coord_id(id);
        }
        let div = divergence(&s);
        assert!(
            div.iter().all(|&d| (d - 3.0).abs() < 1e-9),
            "div = {:?}",
            &div[..4]
        );
    }

    #[test]
    fn viscosity_only_in_compression() {
        let (mut s, mut scr) = state(4);
        // Compression: u = -x.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = Vec3::new(-p.x, 0.0, 0.0);
        }
        eos_and_viscosity(&mut s, &mut scr.stress);
        assert!(s.viscosity.iter().all(|&q| q > 0.0));
        // The stress is the sum of the two.
        let sums = s.pressure.iter().zip(&s.viscosity).map(|(p, q)| p + q);
        assert!(sums.eq(scr.stress.iter().copied()));
        // Expansion: u = +x.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = Vec3::new(p.x, 0.0, 0.0);
        }
        eos_and_viscosity(&mut s, &mut scr.stress);
        assert!(s.viscosity.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn acceleration_pushes_away_from_high_pressure() {
        let (mut s, mut scr) = state(4);
        // Hot corner cell at the origin.
        s.energy[0] = 10.0;
        eos_and_viscosity(&mut s, &mut scr.stress);
        acceleration(&mut s, &scr.stress, 0.01);
        // The interior node nearest the hot corner should accelerate away
        // from the origin (positive components).
        let id = s.grid.point_id(1, 1, 1);
        let u = s.velocity[id];
        assert!(u.x > 0.0 && u.y > 0.0 && u.z > 0.0, "u = {u:?}");
    }

    #[test]
    fn acceleration_keeps_boundary_normal_velocity_zero() {
        let (mut s, mut scr) = state(4);
        s.energy[0] = 10.0;
        eos_and_viscosity(&mut s, &mut scr.stress);
        acceleration(&mut s, &scr.stress, 0.01);
        let [nx, ny, nz] = s.grid.point_dims();
        for k in 0..nz {
            for j in 0..ny {
                assert_eq!(s.velocity[s.grid.point_id(0, j, k)].x, 0.0);
                assert_eq!(s.velocity[s.grid.point_id(nx - 1, j, k)].x, 0.0);
            }
        }
    }

    #[test]
    fn pdv_heats_compression_cools_expansion() {
        let (mut s, mut scr) = state(4);
        eos_and_viscosity(&mut s, &mut scr.stress);
        let e0 = s.energy[0];
        // Uniform compression field: div < 0 heats.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = (Vec3::splat(0.5) - p) * 0.1;
        }
        pdv(&mut s, &scr.stress, 0.01);
        assert!(s.energy[0] > e0);
        // Expansion cools.
        for u in &mut s.velocity {
            *u = -*u;
        }
        let e1 = s.energy[0];
        pdv(&mut s, &scr.stress, 0.01);
        assert!(s.energy[0] < e1);
    }

    #[test]
    fn advection_conserves_mass_exactly() {
        let (mut s, mut scr) = state(6);
        // Random-ish smooth velocity field and non-uniform density.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = Vec3::new(
                (p.y * 7.0).sin() * 0.2,
                (p.z * 5.0).cos() * 0.2,
                (p.x * 3.0).sin() * 0.2,
            );
        }
        for (c, d) in s.density.iter_mut().enumerate() {
            *d = 1.0 + 0.5 * ((c % 7) as f64 / 7.0);
        }
        let m0 = s.total_mass();
        advect(&mut s, &mut scr, 1e-3);
        let m1 = s.total_mass();
        assert!(
            (m1 - m0).abs() < 1e-12 * m0.max(1.0),
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn advection_moves_energy_downwind() {
        let (mut s, mut scr) = state(6);
        // Hot slab at low x, uniform +x velocity: energy must move right.
        for c in 0..s.grid.num_cells() {
            if s.grid.cell_at(c).ijk()[0] == 0 {
                s.energy[c] = 5.0;
            }
        }
        for u in &mut s.velocity {
            *u = Vec3::new(1.0, 0.0, 0.0);
        }
        // Boundary normal velocities are not zeroed here (no acceleration
        // call), but boundary faces carry no flux by construction.
        let right_before: f64 = (0..s.grid.num_cells())
            .filter(|&c| s.grid.cell_at(c).ijk()[0] == 1)
            .map(|c| s.energy[c])
            .sum();
        advect(&mut s, &mut scr, 0.01);
        let right_after: f64 = (0..s.grid.num_cells())
            .filter(|&c| s.grid.cell_at(c).ijk()[0] == 1)
            .map(|c| s.energy[c])
            .sum();
        assert!(right_after > right_before);
    }

    #[test]
    fn calc_dt_respects_cfl_and_growth_limit() {
        let (mut s, mut scr) = state(4);
        eos_and_viscosity(&mut s, &mut scr.stress);
        let (dt, _) = calc_dt(&s, 1.0, 0.5);
        let cs = (1.4f64 * 0.4).sqrt();
        let expect = 0.5 * 0.25 / (cs + 1e-12);
        assert!((dt - expect).abs() < 1e-9);
        // Growth limit binds when previous dt was tiny.
        let (dt2, _) = calc_dt(&s, 1e-6, 0.5);
        assert!((dt2 - 1.05e-6).abs() < 1e-12);
    }
}
