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
//! Each sweep reads its neighbours from rows cut once per row: A and C
//! four node rows per cell row (`DivergenceRow`), B the cell rows around
//! a node row (`Layers`, one formula for inside and boundary nodes), D
//! four node rows and two cell rows per face row, E six flux rows per
//! cell row. A and B also return the largest sound speed and squared
//! speed they write; PdV and advection change neither, so the next dt
//! (`cfl_dt`) needs no pass of its own.
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
use crate::rows::{node_layers, rows, x_runs, Layers, Row, MIN_LEN};
use crate::state::State;
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

/// `f64::max` for a maximum folded from `0.0`, dropping a NaN `x` as it
/// does but in one compare (sweep A ran about 10 % slower with
/// `f64::max`'s NaN test and blend on its loop-carried chain).
#[inline(always)]
fn running_max(max: f64, x: f64) -> f64 {
    if x > max {
        x
    } else {
        max
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
/// `viscosity`, in that order (the stress sum is the acceleration's), and
/// the largest sound speed, for the next step's `cfl_dt`.
pub fn eos_and_viscosity(
    state: &mut State,
    stress: &mut [f64],
) -> ([(&'static str, WorkCounters); 3], f64) {
    const C1: f64 = 0.5;
    const C2: f64 = 2.0;
    let cdims = state.grid.cell_dims();
    let dx = state.grid.spacing().min_component();
    let (grid, vel) = (&state.grid, &state.velocity);
    let (density, energy) = (&state.density, &state.energy);
    let pq = (&mut state.pressure[..], &mut state.soundspeed[..]);
    let cells = (pq, (&mut state.viscosity[..], stress));
    let max_cs = par::for_each_chunk_zip(cells, MIN_LEN, |cells, ((p, cs), (q, t))| {
        let mut max_cs = 0.0;
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
                max_cs = running_max(max_cs, cs[n]);
            }
        }
        max_cs
    });
    let nc = state.density.len();
    let mut eos = counters(nc, 14, 6, 16, 16);
    eos.working_set_bytes = (nc * 8 * 4) as u64;
    let phases = [
        ("ideal_gas", eos),
        ("divergence", divergence_counters(nc)),
        ("viscosity", counters(nc, 18, 8, 24, 8)),
    ];
    (phases, max_cs.into_iter().fold(0.0, running_max))
}

/// Sweep B: accelerate the node velocities by the gradient of the cells'
/// total stress (`p + q`, sweep A's `stress`) and apply reflective
/// boundary conditions (zero normal velocity on the domain faces).
/// Returns the counters and the largest squared speed of the new
/// velocities, for the next step's `cfl_dt`. Every node, inside or on the
/// boundary, is one formula over the cells around it (`Layers`).
pub fn acceleration(state: &mut State, stress: &[f64], dt: f64) -> (WorkCounters, f64) {
    let cdims = state.grid.cell_dims();
    let pdims = state.grid.point_dims();
    let spacing = state.grid.spacing();
    let density = &state.density;
    let max_u_sq = par::for_each_chunk_zip(&mut state.velocity[..], MIN_LEN, |nodes, chunk| {
        let mut max_u_sq = 0.0;
        for row in rows(pdims, nodes) {
            let u = row.of(chunk);
            let row_max = node_layers!(
                cdims,
                row.j,
                row.k,
                accelerate_row(stress, density, cdims, row, u, spacing, dt)
            );
            max_u_sq = running_max(max_u_sq, row_max);
        }
        max_u_sq
    });
    let w = counters(state.velocity.len(), 140, 45, 8 * 24, 24);
    (w, max_u_sq.into_iter().fold(0.0, running_max))
}

/// Sweep B over one row of nodes whose cells have `NJ × NK` layers on y
/// and z; the largest squared speed of the row's new velocities.
fn accelerate_row<const NJ: usize, const NK: usize>(
    stress: &[f64],
    density: &[f64],
    cdims: [usize; 3],
    row: Row,
    u: &mut [Vec3],
    spacing: Vec3,
    dt: f64,
) -> f64 {
    let t = Layers::<NJ, NK>::new(stress, cdims, row.j, row.k);
    let rho = Layers::<NJ, NK>::new(density, cdims, row.j, row.k);
    let mut max_u_sq = 0.0;
    for run in x_runs(row, cdims[0]) {
        let (i0, u) = (run.i0, &mut u[run.nodes]);
        let run_max = if run.two {
            accelerate_run::<2, NJ, NK>(&t, &rho, i0, u, spacing, dt)
        } else {
            accelerate_run::<1, NJ, NK>(&t, &rho, i0, u, spacing, dt)
        };
        max_u_sq = running_max(max_u_sq, run_max);
    }
    max_u_sq
}

/// Sweep B over a run of nodes with `NI × NJ × NK` cells around each,
/// the first node's from x index `i0` on: per axis the stress gradient
/// across two layers, or on an axis a node is the end of (one layer) the
/// reflective condition, a zero component. Returns the largest squared
/// new speed.
fn accelerate_run<const NI: usize, const NJ: usize, const NK: usize>(
    t: &Layers<NJ, NK>,
    rho: &Layers<NJ, NK>,
    i0: usize,
    u: &mut [Vec3],
    spacing: Vec3,
    dt: f64,
) -> f64 {
    let mut max_u_sq = 0.0;
    for (i0, u) in (i0..).zip(u) {
        let rho = rho.mean::<NI>(i0).max(1e-12);
        *u = Vec3::new(
            component::<NI, NJ, NK, 0>(t, i0, u.x, spacing.x, rho, dt),
            component::<NI, NJ, NK, 1>(t, i0, u.y, spacing.y, rho, dt),
            component::<NI, NJ, NK, 2>(t, i0, u.z, spacing.z, rho, dt),
        );
        max_u_sq = running_max(max_u_sq, u.length_squared());
    }
    max_u_sq
}

/// The `AXIS` component `u` of the node from `i0` in [`accelerate_run`].
#[inline(always)]
fn component<const NI: usize, const NJ: usize, const NK: usize, const AXIS: usize>(
    t: &Layers<NJ, NK>,
    i0: usize,
    u: f64,
    spacing: f64,
    rho: f64,
    dt: f64,
) -> f64 {
    if [NI, NJ, NK][AXIS] < 2 {
        return 0.0;
    }
    let grad = (t.side::<NI, AXIS>(i0, 1) - t.side::<NI, AXIS>(i0, 0)) / spacing;
    u - dt * grad / rho
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
/// domain boundary carry none. A face row's interior is one run, read
/// from four node rows and two cell rows cut once.
fn face_flux<'a, const AXIS: usize>(
    state: &'a State,
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
        let end = row.i + row.len;
        let inner = if AXIS == 0 {
            row.i.max(1)..end.min(cx)
        } else if (1..cdims[AXIS]).contains(&[row.i, row.j, row.k][AXIS]) {
            row.i..end
        } else {
            row.i..row.i
        };
        // The run as offsets into the row.
        let at = inner.start - row.i..inner.end - row.i;
        let (fm, fe) = (row.of(flux_mass), row.of(flux_energy));
        for out in [&mut *fm, &mut *fe] {
            out[..at.start].fill(0.0);
            out[at.end..].fill(0.0);
        }
        if at.is_empty() {
            continue;
        }
        // Node (i, j, k) and cell (i, j, k) of the run's first face.
        let node = inner.start + nx * (row.j + ny * row.k);
        let high = inner.start + cx * (row.j + cy * row.k);
        let len = at.len();
        let line = |from: usize| &vel[from..][..len];
        let (v, va, vb, vab) = (
            line(node),
            line(node + a),
            line(node + b),
            line(node + a + b),
        );
        let cells = |values: &'a [f64], from: usize| &values[from..][..len];
        let (rho_lo, rho_hi) = (cells(density, high - back), cells(density, high));
        let (e_lo, e_hi) = (cells(energy, high - back), cells(energy, high));
        let out = fm[at.clone()].iter_mut().zip(&mut fe[at]);
        for (n, (fm, fe)) in out.enumerate() {
            let un = 0.25 * (v[n][AXIS] + va[n][AXIS] + vb[n][AXIS] + vab[n][AXIS]);
            let (rho, e) = if un >= 0.0 {
                (rho_lo[n], e_lo[n])
            } else {
                (rho_hi[n], e_hi[n])
            };
            let m = un * area * dt * rho;
            *fm = m;
            *fe = m * e;
        }
    }
}

/// The net flux into the `n`-th cell of `row` from one flux array's
/// three face spaces (in through its low faces, out through its high
/// ones), read from the six face rows around the row, cut once.
fn net_flux<'a>(
    [x, y, z]: [&'a [f64]; 3],
    [cx, cy, _]: [usize; 3],
    row: Row,
) -> impl Fn(usize) -> f64 + 'a {
    let (c, len) = (row.id, row.len);
    // The low face of the row's first cell in each face space; the high
    // face is one stride of that axis on.
    let fx = row.i + (cx + 1) * (row.j + cy * row.k);
    let fy = row.i + cx * (row.j + (cy + 1) * row.k);
    let line = |space: &'a [f64], from: usize| &space[from..][..len];
    let (x, y0, y1) = (&x[fx..][..len + 1], line(y, fy), line(y, fy + cx));
    let (z0, z1) = (line(z, c), line(z, c + cx * cy));
    move |n| x[n] - x[n + 1] + y0[n] - y1[n] + z0[n] - z1[n]
}

/// Conservative first-order donor-cell (upwind) advection of mass and
/// internal energy: sweep D computes the fluxes of all three face spaces
/// (one range over the three end to end, each chunk split where it
/// crosses from one space into the next), sweep E applies them per cell.
/// Boundary faces carry zero flux, so total mass is conserved to
/// rounding.
pub fn advect(state: &mut State, scratch: &mut Scratch, dt: f64) -> WorkCounters {
    let cdims = state.grid.cell_dims();
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
            let (c, len) = (row.id, row.len);
            let (dm, de) = (net_flux(fm, cdims, row), net_flux(fe, cdims, row));
            let (rho, e) = (&density[c..c + len], &energy[c..c + len]);
            let out = row.of(nd).iter_mut().zip(row.of(ne));
            for (n, (nd, ne)) in out.enumerate() {
                let (dm, de) = (dm(n), de(n));
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
/// limited to grow at most 5 % per step. A step gets the same number
/// from sweeps A and B's maxima (`cfl_dt`) instead of this pass.
pub fn calc_dt(state: &State, prev_dt: f64, cfl: f64) -> (f64, WorkCounters) {
    let max_u_sq = (state.velocity.iter().map(|u| u.length_squared())).fold(0.0, f64::max);
    let max_cs = state.soundspeed.iter().copied().fold(0.0, f64::max);
    cfl_dt(&state.grid, max_cs, max_u_sq, prev_dt, cfl)
}

/// [`calc_dt`] from the largest sound speed and squared node speed, with
/// `calc_dt`'s counters: the power model still charges its pass.
pub(crate) fn cfl_dt(
    grid: &UniformGrid,
    max_cs: f64,
    max_u_sq: f64,
    prev_dt: f64,
    cfl: f64,
) -> (f64, WorkCounters) {
    let dx = grid.spacing().min_component();
    // One root, of the largest square: `sqrt` is monotone and correctly
    // rounded, so this is the largest length to the bit.
    let max_u = max_u_sq.sqrt();
    let dt = cfl * dx / (max_cs + max_u + 1e-12);
    let dt = dt.min(prev_dt * 1.05);
    let n = grid.num_points() + grid.num_cells();
    (dt, counters(n, 10, 5, 16, 0))
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

    /// A value in `[lo, hi)` drawn from `seed` (SplitMix64).
    fn draw(seed: &mut u64, lo: f64, hi: f64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        lo + (hi - lo) * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A state on `cells` with three unequal spacings and drawn values:
    /// velocities of both signs everywhere, the boundary too, and a
    /// drawn stress to go with it.
    fn drawn_state(cells: [usize; 3]) -> (State, Vec<f64>) {
        let pdims = cells.map(|c| c + 1);
        let grid = UniformGrid::new(pdims, Vec3::new(-0.2, 0.1, 0.3), Vec3::new(0.3, 0.17, 0.41));
        let mut s = State::quiescent(grid);
        let mut seed = (cells[0] * 100 + cells[1] * 10 + cells[2]) as u64;
        for (rho, e) in s.density.iter_mut().zip(&mut s.energy) {
            *rho = draw(&mut seed, 0.3, 3.0);
            *e = draw(&mut seed, 0.5, 4.0);
        }
        // Full mantissas of mixed exponents, so that the order of a sum
        // shows in its bits: values on one fixed-point lattice sum
        // exactly in any order.
        for u in &mut s.velocity {
            *u =
                Vec3::from([0; 3].map(|_| draw(&mut seed, -1.3, 1.1) * draw(&mut seed, 0.05, 3.0)));
        }
        let stress = (0..s.density.len())
            .map(|_| draw(&mut seed, 0.0, 5.0))
            .collect();
        (s, stress)
    }

    /// The mean of `values` over the cells that touch node `(i, j, k)`,
    /// clamped per axis, summed `k`-outermost, `i`-innermost: the
    /// reference for `Layers::mean` and the exports.
    fn node_mean(values: &[f64], [cx, cy, cz]: [usize; 3], [i, j, k]: [usize; 3]) -> f64 {
        let [[i0, i1], [j0, j1], [k0, k1]] = cell_spans([cx, cy, cz], [i, j, k]);
        let mut sum = 0.0;
        for ck in k0..k1 {
            for cj in j0..j1 {
                let row = cx * (cj + cy * ck);
                for ci in i0..i1 {
                    sum += values[row + ci];
                }
            }
        }
        sum / ((i1 - i0) * (j1 - j0) * (k1 - k0)) as f64
    }

    /// Per axis, the cell indices `[from, to)` that touch a node.
    fn cell_spans(cdims: [usize; 3], node: [usize; 3]) -> [[usize; 2]; 3] {
        [0, 1, 2].map(|a| [node[a].saturating_sub(1), (node[a] + 1).min(cdims[a])])
    }

    /// Sweep B node by node, every node through the clamped path: the
    /// density over the cells around it, each stress side the mean over
    /// the cells at the side, the later of its two other axes innermost,
    /// and a zero component on an axis the node is the end of.
    fn acceleration_reference(state: &mut State, stress: &[f64], dt: f64) {
        let cdims = state.grid.cell_dims();
        let pdims = state.grid.point_dims();
        let [cx, cy, _] = cdims;
        let cstride = [1, cx, cx * cy];
        let spacing = state.grid.spacing();
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
        for id in 0..state.velocity.len() {
            let node = state.grid.point_ijk(id);
            let rho = node_mean(&state.density, cdims, node).max(1e-12);
            let spans = cell_spans(cdims, node);
            let u = state.velocity[id];
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
            state.velocity[id] = next.into();
        }
    }

    /// Sweeps D and E face by face and cell by cell, by `(i, j, k)` and
    /// strides: each face's flux from its four nodes and its donor cell,
    /// zero on the boundary, then each cell's net flux. Returns the mass
    /// and energy fluxes, laid out as `Scratch` holds them.
    fn advect_reference(state: &mut State, dt: f64) -> [Vec<f64>; 2] {
        let cdims = state.grid.cell_dims();
        let [cx, cy, cz] = cdims;
        let [nx, ny, _] = state.grid.point_dims();
        let s = state.grid.spacing();
        let vol = s.x * s.y * s.z;
        let areas = [s.y * s.z, s.x * s.z, s.x * s.y];
        let (vel, density, energy) = (&state.velocity, &state.density, &state.energy);
        let mut fluxes = [Vec::new(), Vec::new()];
        for axis in 0..3 {
            let mut fdims = cdims;
            fdims[axis] += 1;
            let (a, b) = [(nx, nx * ny), (1, nx * ny), (1, nx)][axis];
            for k in 0..fdims[2] {
                for j in 0..fdims[1] {
                    for i in 0..fdims[0] {
                        let [fm, fe] = if [i, j, k][axis] == 0 || [i, j, k][axis] == cdims[axis] {
                            [0.0; 2]
                        } else {
                            let p = i + nx * (j + ny * k);
                            let un = 0.25
                                * (vel[p][axis]
                                    + vel[p + a][axis]
                                    + vel[p + b][axis]
                                    + vel[p + a + b][axis]);
                            let high = i + cx * (j + cy * k);
                            let back = [1, cx, cx * cy][axis];
                            let donor = if un >= 0.0 { high - back } else { high };
                            let m = un * areas[axis] * dt * density[donor];
                            [m, m * energy[donor]]
                        };
                        fluxes[0].push(fm);
                        fluxes[1].push(fe);
                    }
                }
            }
        }
        let [fx, fy] = [(cx + 1) * cy * cz, cx * (cy + 1) * cz];
        let mut next = (Vec::new(), Vec::new());
        for k in 0..cz {
            for j in 0..cy {
                for i in 0..cx {
                    let x = i + (cx + 1) * (j + cy * k);
                    let y = fx + i + cx * (j + (cy + 1) * k);
                    let c = i + cx * (j + cy * k);
                    let z = fx + fy + c;
                    let net =
                        |f: &[f64]| f[x] - f[x + 1] + f[y] - f[y + cx] + f[z] - f[z + cx * cy];
                    let mass_new = (density[c] * vol + net(&fluxes[0])).max(1e-12 * vol);
                    let rho_e_new = (density[c] * energy[c] * vol + net(&fluxes[1])).max(0.0);
                    next.0.push(mass_new / vol);
                    next.1.push((rho_e_new / mass_new).max(1e-9));
                }
            }
        }
        (state.density, state.energy) = next;
        fluxes
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn vec_bits(values: &[Vec3]) -> Vec<u64> {
        values
            .iter()
            .flat_map(|u| [u.x, u.y, u.z].map(f64::to_bits))
            .collect()
    }

    /// Sweeps B, D and E against the node-by-node and face-by-face
    /// references, bit for bit, on every grid of 1, 2, 3 or 5 cells per
    /// axis: rows of one and two nodes, faces rows wholly on the
    /// boundary, grids with no interior node.
    #[test]
    fn row_sweeps_match_the_clamped_references_bit_for_bit() {
        const DT: f64 = 0.013;
        let sizes = [1, 2, 3, 5];
        for threads in [1, 16] {
            par::with_threads(threads, || {
                for cx in sizes {
                    for cy in sizes {
                        for cz in sizes {
                            let (s, stress) = drawn_state([cx, cy, cz]);
                            let what = format!("{cx}x{cy}x{cz} at {threads} threads");

                            let (mut got, mut expect) = (s.clone(), s.clone());
                            let (_, max_u_sq) = acceleration(&mut got, &stress, DT);
                            acceleration_reference(&mut expect, &stress, DT);
                            let squares = expect.velocity.iter().map(|u| u.length_squared());
                            let expect_max = squares.fold(0.0, f64::max);
                            assert_eq!(
                                vec_bits(&got.velocity),
                                vec_bits(&expect.velocity),
                                "acceleration {what}"
                            );
                            assert_eq!(max_u_sq.to_bits(), expect_max.to_bits(), "{what}");

                            let (mut got, mut expect) = (s.clone(), s);
                            let mut scratch = Scratch::for_state(&got);
                            advect(&mut got, &mut scratch, DT);
                            let [fm, fe] = advect_reference(&mut expect, DT);
                            assert_eq!(bits(&scratch.flux_mass), bits(&fm), "mass flux {what}");
                            assert_eq!(bits(&scratch.flux_energy), bits(&fe), "energy flux {what}");
                            assert_eq!(bits(&got.density), bits(&expect.density), "advect {what}");
                            assert_eq!(bits(&got.energy), bits(&expect.energy), "advect {what}");

                            // The export's node means.
                            let means = got.cell_to_point(&got.energy);
                            let ijk = (0..means.len()).map(|p| got.grid.point_ijk(p));
                            let cdims = got.grid.cell_dims();
                            let expect: Vec<f64> =
                                ijk.map(|n| node_mean(&got.energy, cdims, n)).collect();
                            assert_eq!(bits(&means), bits(&expect), "cell_to_point {what}");
                        }
                    }
                }
            });
        }
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
