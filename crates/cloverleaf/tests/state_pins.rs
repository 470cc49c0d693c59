//! Absolute pins of the hydro state: an FNV-1a of the bit patterns of
//! all six [`State`] arrays plus `time()` and `current_dt()`, and of the
//! point `energy` that `Simulation::dataset` exports from it.
//!
//! The constants were taken on the commit *before* the kernels moved to
//! the row walk, so they pin the floating-point results, not the
//! implementation. A pin that moves means an operand order, a stride or
//! a boundary branch changed — fix the kernel, do not re-pin. The seeds
//! use only `+ − × ÷` (and the solver only adds `sqrt`), so the
//! constants do not depend on a libm.
//!
//! Cubes hide stride mix-ups and small grids never leave the whole-range
//! branch of `vizmesh::par` (`MIN_LEN` is 4096, two chunks the minimum
//! to cut), so beside the 12³ run there is a `5 × 7 × 9` run with
//! unequal spacings, two grids where every node is a boundary node, and
//! a `23 × 21 × 19` grid whose chunks start mid-row and mid-slab in all
//! five index spaces (4096 = 178 rows of 23 + 2; 178 = 8 slabs of 21 +
//! 10). Every pin runs at 1, 2 (the benchmark's count), 4 and 16
//! threads.

use cloverleaf::kernels::{self, Scratch};
use cloverleaf::{Problem, SimConfig, Simulation, State};
use vizmesh::{par, Aabb, UniformGrid, Vec3};

const THREADS: [usize; 4] = [1, 2, 4, 16];

fn fnv(h: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn state_hash(state: &State) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let cells = [
        &state.density,
        &state.energy,
        &state.pressure,
        &state.viscosity,
        &state.soundspeed,
    ];
    for x in cells.into_iter().flatten() {
        fnv(&mut h, x.to_bits());
    }
    for u in &state.velocity {
        for c in [u.x, u.y, u.z] {
            fnv(&mut h, c.to_bits());
        }
    }
    h
}

fn sim_hash(sim: &Simulation) -> u64 {
    let mut h = state_hash(&sim.state);
    fnv(&mut h, sim.time().to_bits());
    fnv(&mut h, sim.current_dt().to_bits());
    h
}

/// A smooth, nowhere-uniform state on `cells` over a box with three
/// different spacings. Velocities are non-zero on the boundary too: the
/// reflective condition is the kernel's job. The divergence changes sign
/// across the box, so the viscosity is active in some cells only.
fn smooth_state(cells: [usize; 3]) -> State {
    let bounds = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.2, 1.5));
    let mut s = State::quiescent(UniformGrid::from_cell_dims(cells, bounds));
    for c in 0..s.grid.num_cells() {
        let p = s.grid.cell_at(c).center();
        s.density[c] = 0.4 + p.x * p.y + 0.25 * p.z * p.z;
        s.energy[c] = 1.0 + 0.5 * (1.0 - p.x) * (p.y + 0.5 * p.z) + 0.1 * p.x * p.z;
    }
    for id in 0..s.grid.num_points() {
        let p = s.grid.point_coord_id(id);
        s.velocity[id] = Vec3::new(
            0.1 * (p.y - 0.5) * (1.0 + p.z) + 0.2 * (0.5 - p.x) * p.x,
            0.08 * (0.7 - p.z) * (0.5 + p.x) - 0.1 * p.y * (p.y - 0.6),
            0.06 * (p.x - 0.4) * (1.3 - p.y) + 0.05 * p.z,
        );
    }
    s
}

/// `hash` of a fresh `build()` stepped `steps` times, once per thread
/// count; every leg must give `expect`.
fn pin_run(what: &str, expect: u64, steps: u64, build: impl Fn() -> Simulation) {
    for threads in THREADS {
        let got = par::with_threads(threads, || {
            let mut sim = build();
            sim.run_steps(steps);
            sim_hash(&sim)
        });
        assert_eq!(
            got, expect,
            "{what}: {got:#018x} at {threads} threads, pinned {expect:#018x}"
        );
    }
}

fn smooth_sim(cells: [usize; 3]) -> Simulation {
    Simulation::from_state(smooth_state(cells), SimConfig::default())
}

/// The bits of the exported point `energy`: the cell-to-node mean every
/// visualization cycle reads.
fn export_hash(sim: &Simulation) -> u64 {
    let data = sim.dataset();
    let energy = data
        .point_scalars("energy")
        .expect("the export has point energy");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for x in energy {
        fnv(&mut h, x.to_bits());
    }
    h
}

#[test]
fn two_state_12_cubed_after_40_steps() {
    pin_run("TwoState 12^3 x 40", 0xf7cea94b83eb9b65, 40, || {
        Simulation::new(Problem::TwoState, 12, SimConfig::default())
    });
}

#[test]
fn non_cubic_smooth_state_after_20_steps() {
    pin_run("smooth 5x7x9 x 20", 0x8366352d8845852a, 20, || {
        smooth_sim([5, 7, 9])
    });
}

/// No node of these grids has all three indices strictly inside: an
/// interior fast path must never run on them.
#[test]
fn all_boundary_grids_after_5_steps() {
    pin_run("smooth 1x1x1 x 5", 0x2fae6a2e97428bf4, 5, || {
        smooth_sim([1, 1, 1])
    });
    pin_run("smooth 1x6x6 x 5", 0x0d1e58cffea89288, 5, || {
        smooth_sim([1, 6, 6])
    });
    pin_run("TwoState on 6x1x6 x 5", 0xe35c58a840e4ddb5, 5, || {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.2, 1.0));
        let grid = UniformGrid::from_cell_dims([6, 1, 6], bounds);
        Simulation::from_state(Problem::TwoState.build_on(grid), SimConfig::default())
    });
}

/// Whole steps on the grid that `par` does cut: every kernel's chunk
/// body starts mid-row and mid-slab at 4 and 16 threads and sees the
/// whole range at 1.
#[test]
fn cut_grid_after_3_steps() {
    pin_run("smooth 23x21x19 x 3", 0x5b2bae030891b0e3, 3, || {
        smooth_sim([23, 21, 19])
    });
}

/// `acceleration` and `advect` alone on the cut grid, each from the same
/// prepared state (sweep A: EOS, divergence, viscosity, stress), against
/// their own pins (state, then `calc_dt` of it).
#[test]
fn acceleration_and_advect_phase_pins_on_the_cut_grid() {
    const DT: f64 = 2e-3;
    let phase = |threads: usize, advect: bool| {
        par::with_threads(threads, || {
            let mut s = smooth_state([23, 21, 19]);
            let mut scratch = Scratch::for_state(&s);
            kernels::eos_and_viscosity(&mut s, &mut scratch.stress);
            if advect {
                kernels::advect(&mut s, &mut scratch, DT);
            } else {
                kernels::acceleration(&mut s, &scratch.stress, DT);
            }
            // With no previous step to limit growth, the CFL bound itself:
            // the hydro runs above never leave the 5 %-per-step ramp.
            let (cfl_dt, _) = kernels::calc_dt(&s, 1.0, 0.4);
            let mut h = state_hash(&s);
            fnv(&mut h, cfl_dt.to_bits());
            h
        })
    };
    for threads in THREADS {
        let got = phase(threads, false);
        assert_eq!(
            got, 0x27550f2582077fdf,
            "acceleration: {got:#018x} at {threads} threads"
        );
        let got = phase(threads, true);
        assert_eq!(
            got, 0x246fba5bd6f4b68a,
            "advect: {got:#018x} at {threads} threads"
        );
    }
}

/// The exported point energy after each of the state pins' runs above,
/// at every thread count (constants taken, like the state pins, before
/// the export moved to the acceleration's cell-row walk).
#[test]
fn exported_point_energy_after_the_pinned_runs() {
    let two_state_6x1x6 = || {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.2, 1.0));
        let grid = UniformGrid::from_cell_dims([6, 1, 6], bounds);
        Simulation::from_state(Problem::TwoState.build_on(grid), SimConfig::default())
    };
    let runs: [(&str, u64, u64, &dyn Fn() -> Simulation); 6] = [
        ("TwoState 12^3 x 40", 0x9ca5e5bc0143aec7, 40, &|| {
            Simulation::new(Problem::TwoState, 12, SimConfig::default())
        }),
        ("smooth 5x7x9 x 20", 0x2dfd2c5b407d92c5, 20, &|| {
            smooth_sim([5, 7, 9])
        }),
        ("smooth 1x1x1 x 5", 0xab251104f7c28825, 5, &|| {
            smooth_sim([1, 1, 1])
        }),
        ("smooth 1x6x6 x 5", 0xb904cd4ae96bab91, 5, &|| {
            smooth_sim([1, 6, 6])
        }),
        (
            "TwoState on 6x1x6 x 5",
            0xdd9035f914424dc5,
            5,
            &two_state_6x1x6,
        ),
        ("smooth 23x21x19 x 3", 0x8f25dd7d1b7eda30, 3, &|| {
            smooth_sim([23, 21, 19])
        }),
    ];
    for (what, expect, steps, build) in runs {
        for threads in THREADS {
            let got = par::with_threads(threads, || {
                let mut sim = build();
                sim.run_steps(steps);
                export_hash(&sim)
            });
            assert_eq!(
                got, expect,
                "{what} export: {got:#018x} at {threads} threads, pinned {expect:#018x}"
            );
        }
    }
}
