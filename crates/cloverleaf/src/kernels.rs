//! The hydrodynamics kernels: EOS, artificial viscosity, acceleration,
//! PdV, and conservative donor-cell advection.
//!
//! Every kernel returns the [`WorkCounters`] it accumulated so the in situ
//! power experiments can characterize the simulation side of the coupled
//! workload. Per-item instruction/flop estimates are rough static costs of
//! the inner loops; the *counts* (cells, faces, nodes touched) are exact.
//!
//! # Index spaces
//!
//! Five x-fastest boxes over a grid of `cx × cy × cz` cells (`nx = cx + 1`
//! nodes per row, and so on). A loop over one of them walks
//! `rows` (`src/rows.rs`) of its id range and reaches into the others by
//! row base plus `i`, then by strides — nothing is decoded per item.
//!
//! | space   | dims             | `+j` stride | `+k` stride     | holds                        |
//! |---------|------------------|-------------|-----------------|------------------------------|
//! | cells   | `cx, cy, cz`     | `cx`        | `cx · cy`       | ρ, e, p, q, c_s, div, stress |
//! | nodes   | `nx, ny, nz`     | `nx`        | `nx · ny`       | velocity                     |
//! | x faces | `cx + 1, cy, cz` | `cx + 1`    | `(cx + 1) · cy` | `flux_*[0]`                  |
//! | y faces | `cx, cy + 1, cz` | `cx`        | `cx · (cy + 1)` | `flux_*[1]`                  |
//! | z faces | `cx, cy, cz + 1` | `cx`        | `cx · cy`       | `flux_*[2]`                  |
//!
//! Item `(i, j, k)` of any space has the node `(i, j, k)` as its low
//! corner and, where it exists, the cell `(i, j, k)` on its high side;
//! a face's low-side cell is one cell stride of its axis back. Node
//! `(i, j, k)` touches the cells `(i − 1 ..= i, j − 1 ..= j, k − 1 ..= k)`
//! that exist.

use crate::eos;
use crate::rows::{rows, MIN_LEN};
use crate::state::{cell_spans, node_mean, sum_at, State};
use vizmesh::{par, WorkCounters};

/// Scratch buffers reused across steps to avoid per-step allocation.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Cell-centered velocity divergence.
    pub div: Vec<f64>,
    /// Cell-centered total stress `p + q`.
    pub stress: Vec<f64>,
    /// Mass flux through x/y/z faces.
    pub(crate) flux_mass: [Vec<f64>; 3],
    /// Energy (ρe) flux through x/y/z faces.
    pub(crate) flux_energy: [Vec<f64>; 3],
    /// Post-advection density / energy staging; swapped with the state's
    /// arrays at the end of [`advect`].
    pub(crate) new_density: Vec<f64>,
    pub(crate) new_energy: Vec<f64>,
}

impl Scratch {
    pub fn for_state(state: &State) -> Self {
        let [cx, cy, cz] = state.grid.cell_dims();
        let nc = state.grid.num_cells();
        Scratch {
            div: vec![0.0; nc],
            stress: vec![0.0; nc],
            flux_mass: [
                vec![0.0; (cx + 1) * cy * cz],
                vec![0.0; cx * (cy + 1) * cz],
                vec![0.0; cx * cy * (cz + 1)],
            ],
            flux_energy: [
                vec![0.0; (cx + 1) * cy * cz],
                vec![0.0; cx * (cy + 1) * cz],
                vec![0.0; cx * cy * (cz + 1)],
            ],
            new_density: vec![0.0; nc],
            new_energy: vec![0.0; nc],
        }
    }
}

/// Corner index groups of a hexahedral cell (see
/// [`vizmesh::UniformGrid::cell_point_ids`]): `[negative-side, positive-side]`
/// corner slots per axis.
const X_NEG: [usize; 4] = [0, 3, 4, 7];
const X_POS: [usize; 4] = [1, 2, 5, 6];
const Y_NEG: [usize; 4] = [0, 1, 4, 5];
const Y_POS: [usize; 4] = [2, 3, 6, 7];
const Z_NEG: [usize; 4] = [0, 1, 2, 3];
const Z_POS: [usize; 4] = [4, 5, 6, 7];

/// Update pressure and sound speed from the ideal-gas EOS.
pub fn ideal_gas(state: &mut State) -> WorkCounters {
    let density = &state.density;
    let energy = &state.energy;
    let (pressure, soundspeed) = (&mut state.pressure, &mut state.soundspeed);
    par::for_each_chunk_mut2(pressure, soundspeed, MIN_LEN, |cells, p, cs| {
        let inputs = density[cells.clone()].iter().zip(&energy[cells]);
        for ((p, cs), (&rho, &e)) in p.iter_mut().zip(cs).zip(inputs) {
            *p = eos::pressure(rho, e);
            *cs = eos::sound_speed(rho, *p);
        }
    });
    let mut w = WorkCounters::new();
    w.tally(state.density.len() as u64, 14, 6, 16, 16);
    w.working_set_bytes = (state.density.len() * 8 * 4) as u64;
    w
}

/// Cell-centered velocity divergence from the corner node velocities.
pub fn divergence(state: &State, div: &mut [f64]) -> WorkCounters {
    let cdims = state.grid.cell_dims();
    let [nx, ny, _] = state.grid.point_dims();
    let (sy, sz) = (nx, nx * ny);
    let s = state.grid.spacing();
    let vel = &state.velocity;
    par::for_each_chunk_mut(div, MIN_LEN, |cells, chunk| {
        for row in rows(cdims, cells) {
            // The four node rows this cell row lies between, from the
            // cells' low corner nodes on.
            let p = row.i + nx * (row.j + ny * row.k);
            let line = |from: usize| &vel[from..from + row.len + 1];
            let (lo, y, z, yz) = (line(p), line(p + sy), line(p + sz), line(p + sy + sz));
            for (n, d) in row.of(chunk).iter_mut().enumerate() {
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
                *d = dudx + dvdy + dwdz;
            }
        }
    });
    let mut w = WorkCounters::new();
    w.tally(div.len() as u64, 60, 27, 8 * 24, 8);
    w
}

/// Von Neumann–Richtmyer artificial viscosity with a linear term:
/// `q = c₂ ρ (Δ div u)² + c₁ ρ c_s Δ |div u|` in compression, 0 otherwise.
pub fn viscosity(state: &mut State, div: &[f64]) -> WorkCounters {
    const C1: f64 = 0.5;
    const C2: f64 = 2.0;
    let s = state.grid.spacing();
    let dx = s.min_component();
    let density = &state.density;
    let soundspeed = &state.soundspeed;
    par::for_each_mut(&mut state.viscosity, MIN_LEN, |c, q| {
        let d = div[c];
        *q = if d < 0.0 {
            let rho = density[c];
            let dd = dx * d;
            C2 * rho * dd * dd + C1 * rho * soundspeed[c] * dx * d.abs()
        } else {
            0.0
        };
    });
    let mut w = WorkCounters::new();
    w.tally(state.viscosity.len() as u64, 18, 8, 24, 8);
    w
}

/// Accelerate the node velocities by the pressure + viscosity gradient and
/// apply reflective boundary conditions (zero normal velocity on the
/// domain faces). `stress` is scratch for the total stress per cell.
pub fn acceleration(state: &mut State, stress: &mut [f64], dt: f64) -> WorkCounters {
    let cdims = state.grid.cell_dims();
    let pdims = state.grid.point_dims();
    let [cx, cy, _] = cdims;
    let cstride = [1, cx, cx * cy];
    let (sy, sz) = (cstride[1], cstride[2]);
    let spacing = state.grid.spacing();
    let (pressure, viscosity) = (&state.pressure, &state.viscosity);
    par::for_each_mut(stress, MIN_LEN, |c, t| *t = pressure[c] + viscosity[c]);
    let stress = &*stress;
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

    par::for_each_chunk_mut(&mut state.velocity, MIN_LEN, |nodes, chunk| {
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

    let mut w = WorkCounters::new();
    w.tally(state.velocity.len() as u64, 140, 45, 8 * 24, 24);
    w
}

/// PdV internal-energy update: `de/dt = −(p + q) ∇·u / ρ`.
///
/// Energy is floored at a small positive value to keep the EOS sane in
/// strong expansions.
pub(crate) fn pdv(state: &mut State, div: &[f64], dt: f64) -> WorkCounters {
    const E_FLOOR: f64 = 1e-9;
    let pressure = &state.pressure;
    let viscosity = &state.viscosity;
    let density = &state.density;
    par::for_each_mut(&mut state.energy, MIN_LEN, |c, e| {
        let work = (pressure[c] + viscosity[c]) * div[c] / density[c].max(1e-12);
        *e = (*e - dt * work).max(E_FLOOR);
    });
    let mut w = WorkCounters::new();
    w.tally(state.energy.len() as u64, 16, 7, 40, 8);
    w
}

/// Donor-cell mass and energy flux through the faces normal to `AXIS`:
/// the face-normal velocity is the mean of the face's four nodes, the
/// donor the cell it blows out of. Faces on the domain boundary carry
/// none.
fn face_flux<const AXIS: usize>(
    state: &State,
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
    par::for_each_chunk_mut2(flux_mass, flux_energy, MIN_LEN, |faces, fm, fe| {
        for row in rows(fdims, faces) {
            // Node (0, j, k) and cell (0, j, k) of this face row.
            let node0 = nx * (row.j + ny * row.k);
            let cell0 = cx * (row.j + cy * row.k);
            let out = row.of(fm).iter_mut().zip(row.of(fe));
            for (n, (fm, fe)) in out.enumerate() {
                let i = row.i + n;
                let along = [i, row.j, row.k][AXIS];
                if along == 0 || along == cdims[AXIS] {
                    *fm = 0.0;
                    *fe = 0.0;
                    continue;
                }
                let p = node0 + i;
                let un = 0.25
                    * (vel[p][AXIS] + vel[p + a][AXIS] + vel[p + b][AXIS] + vel[p + a + b][AXIS]);
                let high = cell0 + i;
                let donor = if un >= 0.0 { high - back } else { high };
                let m = un * area * dt * density[donor];
                *fm = m;
                *fe = m * energy[donor];
            }
        }
    });
}

/// Conservative first-order donor-cell (upwind) advection of mass and
/// internal energy. Boundary faces carry zero flux, so total mass is
/// conserved to rounding.
pub fn advect(state: &mut State, scratch: &mut Scratch, dt: f64) -> WorkCounters {
    let cdims = state.grid.cell_dims();
    let [cx, cy, _] = cdims;
    let s = state.grid.spacing();
    let vol = s.x * s.y * s.z;
    let mut w = WorkCounters::new();

    let [mx, my, mz] = &mut scratch.flux_mass;
    let [ex, ey, ez] = &mut scratch.flux_energy;
    face_flux::<0>(state, mx, ex, s.y * s.z, dt);
    face_flux::<1>(state, my, ey, s.x * s.z, dt);
    face_flux::<2>(state, mz, ez, s.x * s.y, dt);
    let (fm, fe) = (&scratch.flux_mass, &scratch.flux_energy);
    let nfaces = fm.iter().map(Vec::len).sum::<usize>() as u64;
    w.tally(nfaces, 46, 14, 8 * 8, 16);

    // Apply fluxes: new mass = old mass + Σ incoming − Σ outgoing.
    {
        let density = &state.density;
        let energy = &state.energy;
        let (nd, ne) = (&mut scratch.new_density, &mut scratch.new_energy);
        par::for_each_chunk_mut2(nd, ne, MIN_LEN, |cells, nd, ne| {
            for row in rows(cdims, cells) {
                // The low face of the row's first cell in each face
                // space; the high face is one stride of that axis on.
                let (c, len) = (row.id, row.len);
                let fx = row.i + (cx + 1) * (row.j + cy * row.k);
                let fy = row.i + cx * (row.j + (cy + 1) * row.k);
                let net = |[x, y, z]: &[Vec<f64>; 3], n: usize| {
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
    }
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

    #[test]
    fn ideal_gas_uniform_state() {
        let (mut s, _) = state(4);
        ideal_gas(&mut s);
        assert!(s.pressure.iter().all(|&p| (p - 0.4).abs() < 1e-12));
        let cs = (1.4 * 0.4f64).sqrt();
        assert!(s.soundspeed.iter().all(|&c| (c - cs).abs() < 1e-12));
    }

    #[test]
    fn divergence_zero_for_uniform_velocity() {
        let (mut s, mut scr) = state(4);
        for u in &mut s.velocity {
            *u = Vec3::new(0.3, -0.2, 0.1);
        }
        divergence(&s, &mut scr.div);
        assert!(scr.div.iter().all(|&d| d.abs() < 1e-12));
    }

    #[test]
    fn divergence_of_linear_expansion() {
        // u = (x, y, z) has divergence 3 everywhere.
        let (mut s, mut scr) = state(4);
        for (id, u) in s.velocity.iter_mut().enumerate() {
            *u = s.grid.point_coord_id(id);
        }
        divergence(&s, &mut scr.div);
        assert!(
            scr.div.iter().all(|&d| (d - 3.0).abs() < 1e-9),
            "div = {:?}",
            &scr.div[..4]
        );
    }

    #[test]
    fn viscosity_only_in_compression() {
        let (mut s, mut scr) = state(4);
        ideal_gas(&mut s);
        // Compression: u = -x.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = Vec3::new(-p.x, 0.0, 0.0);
        }
        divergence(&s, &mut scr.div);
        viscosity(&mut s, &scr.div);
        assert!(s.viscosity.iter().all(|&q| q > 0.0));
        // Expansion: u = +x.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = Vec3::new(p.x, 0.0, 0.0);
        }
        divergence(&s, &mut scr.div);
        viscosity(&mut s, &scr.div);
        assert!(s.viscosity.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn acceleration_pushes_away_from_high_pressure() {
        let (mut s, mut scr) = state(4);
        // Hot corner cell at the origin.
        s.energy[0] = 10.0;
        ideal_gas(&mut s);
        acceleration(&mut s, &mut scr.stress, 0.01);
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
        ideal_gas(&mut s);
        acceleration(&mut s, &mut scr.stress, 0.01);
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
        ideal_gas(&mut s);
        let e0 = s.energy[0];
        // Uniform compression field: div < 0 heats.
        for (id, u) in s.velocity.iter_mut().enumerate() {
            let p = s.grid.point_coord_id(id);
            *u = (Vec3::splat(0.5) - p) * 0.1;
        }
        divergence(&s, &mut scr.div);
        pdv(&mut s, &scr.div, 0.01);
        assert!(s.energy[0] > e0);
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
            if s.grid.cell_ijk(c)[0] == 0 {
                s.energy[c] = 5.0;
            }
        }
        for u in &mut s.velocity {
            *u = Vec3::new(1.0, 0.0, 0.0);
        }
        // Boundary normal velocities are not zeroed here (no acceleration
        // call), but boundary faces carry no flux by construction.
        let right_before: f64 = (0..s.grid.num_cells())
            .filter(|&c| s.grid.cell_ijk(c)[0] == 1)
            .map(|c| s.energy[c])
            .sum();
        advect(&mut s, &mut scr, 0.01);
        let right_after: f64 = (0..s.grid.num_cells())
            .filter(|&c| s.grid.cell_ijk(c)[0] == 1)
            .map(|c| s.energy[c])
            .sum();
        assert!(right_after > right_before);
    }

    #[test]
    fn calc_dt_respects_cfl_and_growth_limit() {
        let (mut s, _) = state(4);
        ideal_gas(&mut s);
        let (dt, _) = calc_dt(&s, 1.0, 0.5);
        let cs = (1.4f64 * 0.4).sqrt();
        let expect = 0.5 * 0.25 / (cs + 1e-12);
        assert!((dt - expect).abs() < 1e-9);
        // Growth limit binds when previous dt was tiny.
        let (dt2, _) = calc_dt(&s, 1e-6, 0.5);
        assert!((dt2 - 1.05e-6).abs() < 1e-12);
    }
}
