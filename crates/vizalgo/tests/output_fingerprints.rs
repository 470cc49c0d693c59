//! Absolute pins of what the five geometry filters produce: one
//! `fingerprint48` over the `Debug` rendering of the whole
//! [`vizalgo::FilterOutput`] — geometry, fields, `kernels` (modeled
//! work) and `primitives` (DPP traffic) — per algorithm × supported
//! backend, on a 12³ analytic field with the paper-default specs.
//! 12³ runs every `par` call inline, so a second test executes the same
//! nine pairs at 32³ — every sweep cut into chunks — and requires the
//! whole output to be equal at 1, 4 and 16 threads.
//!
//! `tests/registry_parity.rs` compares two builds of the same code and
//! the journal goldens compare run to run; this is the test that fails
//! when output bits or counters drift between commits. The nine values
//! were captured at the commit before the traditional and DPP
//! formulations started sharing their per-cell bodies. A change that
//! moves one must say why the modeled work moved.

use vizalgo::{dataset_fingerprint, fingerprint48, Algorithm, Backend};
use vizmesh::{par, Association, DataSet, Field, UniformGrid, Vec3};

/// `n³` cells; `energy` as a point field (off-center radial bump plus a
/// ripple, so every filter cuts cells on curved and oblique surfaces)
/// and as a cell field (what threshold prefers).
fn dataset(n: usize) -> DataSet {
    let grid = UniformGrid::cube_cells(n);
    let f = |p: Vec3| {
        let r = p.distance(Vec3::new(0.4, 0.55, 0.45));
        (-4.0 * r * r).exp() + 0.1 * (9.0 * p.x).sin() * (7.0 * p.y + 3.0 * p.z).cos()
    };
    let point: Vec<f64> = (0..grid.num_points())
        .map(|p| f(grid.point_coord_id(p)))
        .collect();
    let cell: Vec<f64> = (0..grid.num_cells())
        .map(|c| f(grid.cell_center(c)))
        .collect();
    DataSet::uniform(grid)
        .with_field(Field::scalar("energy", Association::Points, point))
        .with_field(Field::scalar("energy", Association::Cells, cell))
}

/// Algorithm × backend × the pinned fingerprint of its 12³ output.
const PINS: [(Algorithm, Backend, u64); 9] = [
    (Algorithm::Contour, Backend::Traditional, 269579667526534),
    (Algorithm::Contour, Backend::Dpp, 101331397172669),
    (Algorithm::Threshold, Backend::Traditional, 216599474997449),
    (Algorithm::Threshold, Backend::Dpp, 201142676696200),
    (
        Algorithm::SphericalClip,
        Backend::Traditional,
        55179682643335,
    ),
    (Algorithm::Isovolume, Backend::Traditional, 160032978823950),
    (Algorithm::Isovolume, Backend::Dpp, 23089082681004),
    (Algorithm::Slice, Backend::Traditional, 43682988630028),
    (Algorithm::Slice, Backend::Dpp, 55968056861578),
];

#[test]
fn geometry_outputs_and_counters_are_pinned() {
    let ds = dataset(12);
    let got = PINS.map(|(alg, backend, _)| {
        let out = alg.default_spec().build_with(backend, &ds).execute(&ds);
        assert!(out.dataset.as_ref().is_some_and(|d| d.num_cells() > 0));
        (alg, backend, fingerprint48(format!("{out:?}").as_bytes()))
    });
    assert_eq!(got, PINS);
}

#[test]
fn whole_outputs_are_identical_at_1_4_and_16_threads() {
    // 32 768 cells and 35 937 points against the 2 × 4096 below which a
    // per-cell or per-point sweep runs inline.
    let ds = dataset(32);
    for (alg, backend, _) in PINS {
        let filter = alg.default_spec().build_with(backend, &ds);
        let [one, four, sixteen] =
            [1, 4, 16].map(|threads| par::with_threads(threads, || filter.execute(&ds)));
        assert!(one.dataset.as_ref().is_some_and(|d| d.num_cells() > 0));
        assert_eq!(backend == Backend::Dpp, !one.primitives.is_empty());
        assert!(one == four, "{alg} {backend}: 1 vs 4 threads");
        assert!(one == sixteen, "{alg} {backend}: 1 vs 16 threads");
    }
}

/// The paper-default particle advection (1000 seeds × 1000 RK4 steps)
/// through a 32³ swirl with an upward drift, so some particles orbit
/// for the full step budget and the rest leave through the top. Pinned
/// at the commit before `execute_steady` was deleted: the generalized
/// kernel must keep producing the steady kernel's polylines, `speed`
/// field and modeled work bit for bit.
#[test]
fn default_advection_output_and_counters_are_pinned() {
    let grid = UniformGrid::cube_cells(32);
    let velocity: Vec<Vec3> = (0..grid.num_points())
        .map(|p| {
            let q = grid.point_coord_id(p);
            Vec3::new(0.5 - q.y, q.x - 0.5, 0.2 + 0.3 * q.x)
        })
        .collect();
    let ds =
        DataSet::uniform(grid).with_field(Field::vector("velocity", Association::Points, velocity));
    let out = Algorithm::ParticleAdvection
        .default_spec()
        .build_with(Backend::Traditional, &ds)
        .execute(&ds);
    let lines = out.dataset.as_ref().expect("advection emits polylines");
    assert_eq!(
        (
            dataset_fingerprint(lines),
            format!("{:?}", out.kernels[0].work)
        ),
        (
            70886518539137,
            "WorkCounters { items: 757752, instructions: 363300960, flops: 290602768, \
             bytes_read: 581209536, bytes_written: 18210048, working_set_bytes: 862488 }"
                .to_string()
        )
    );
}
