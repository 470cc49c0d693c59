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

#![allow(clippy::disallowed_methods, reason = "pins kernels directly")]

use vizalgo::{dataset_fingerprint, fingerprint48, Algorithm, Backend};
use vizmesh::{par, Aabb, Association, DataSet, Field, UniformGrid, Vec3};

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
        .map(|c| f(grid.cell_at(c).center()))
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

/// A `20 × 17 × 13`-cell grid off the origin with unequal spacings,
/// `energy` a tilted radial bump plus a ripple: the clip sphere and the
/// isovolume band both cross every k-slab obliquely, so edge points are
/// shared between vertically adjacent cells in every slab.
fn slab_dataset() -> DataSet {
    let grid = UniformGrid::from_cell_dims(
        [20, 17, 13],
        Aabb::new(Vec3::new(-0.7, 0.3, 2.0), Vec3::new(1.3, 1.66, 2.78)),
    );
    let point: Vec<f64> = (0..grid.num_points())
        .map(|p| {
            let q = grid.point_coord_id(p);
            let r = q.distance(Vec3::new(0.1, 1.1, 2.3));
            (-2.0 * r * r).exp() + 0.1 * (5.0 * q.x - 3.0 * q.z).sin() * (4.0 * q.y + q.z).cos()
        })
        .collect();
    DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, point))
}

/// The three filters that run `tetclip::subdivide_hexes`, pinned on the
/// non-cubic grid where a slab-indexed weld can go wrong (a stride mix-up
/// or a slab boundary off by one is invisible on a cube whose surface
/// sits in few slabs). Captured at the commit before the weld became a
/// two-slab window; asserted at 1, 4 and 16 threads.
const SLAB_PINS: [(Algorithm, Backend, u64); 3] = [
    (
        Algorithm::SphericalClip,
        Backend::Traditional,
        268451422155257,
    ),
    (Algorithm::Isovolume, Backend::Traditional, 119012163485348),
    (Algorithm::Isovolume, Backend::Dpp, 45321690760014),
];

#[test]
fn clip_family_outputs_are_pinned_on_a_non_cubic_grid_at_1_4_and_16_threads() {
    let ds = slab_dataset();
    for threads in [1, 4, 16] {
        let got = SLAB_PINS.map(|(alg, backend, _)| {
            let filter = alg.default_spec().build_with(backend, &ds);
            let out = par::with_threads(threads, || filter.execute(&ds));
            let cells = out.dataset.as_ref().map_or(0, DataSet::num_cells);
            assert!(cells > 1000, "{alg} {backend}: {cells} cells");
            (alg, backend, fingerprint48(format!("{out:?}").as_bytes()))
        });
        assert_eq!(got, SLAB_PINS, "{threads} threads");
    }
}

/// A `37 × 29 × 23`-cell grid off the origin with unequal spacings,
/// `energy` a tilted radial bump plus a ripple. 4096 — the chunk length
/// every threaded sweep of this size is cut at — is no multiple of a
/// 37-cell x-row, so the marching-cubes classify sweep starts and ends
/// its chunks mid-row (the 32³ equality test above cuts whole rows).
fn row_cut_dataset() -> DataSet {
    let grid = UniformGrid::from_cell_dims(
        [37, 29, 23],
        Aabb::new(Vec3::new(0.4, -1.2, 0.7), Vec3::new(2.25, 0.251, 1.62)),
    );
    let point: Vec<f64> = (0..grid.num_points())
        .map(|p| {
            let q = grid.point_coord_id(p);
            let r = q.distance(Vec3::new(1.2, -0.5, 1.1));
            (-1.5 * r * r).exp() + 0.1 * (4.0 * q.x + 2.0 * q.y).sin() * (6.0 * q.z - q.x).cos()
        })
        .collect();
    DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, point))
}

/// Contour (ten isovalues) and three-slice on both backends, pinned on
/// the grid whose rows the chunks cut. Captured at the commit before
/// marching cubes classified once into an active-cell list; asserted at
/// 1, 4 and 16 threads.
const ROW_CUT_PINS: [(Algorithm, Backend, u64); 4] = [
    (Algorithm::Contour, Backend::Traditional, 75589122003769),
    (Algorithm::Contour, Backend::Dpp, 2867944144915),
    (Algorithm::Slice, Backend::Traditional, 184094476694737),
    (Algorithm::Slice, Backend::Dpp, 260189852512575),
];

#[test]
fn marching_cubes_outputs_are_pinned_where_a_chunk_cuts_a_row_at_1_4_and_16_threads() {
    let ds = row_cut_dataset();
    for threads in [1, 4, 16] {
        let got = ROW_CUT_PINS.map(|(alg, backend, _)| {
            let filter = alg.default_spec().build_with(backend, &ds);
            let out = par::with_threads(threads, || filter.execute(&ds));
            let cells = out.dataset.as_ref().map_or(0, DataSet::num_cells);
            assert!(cells > 1000, "{alg} {backend}: {cells} cells");
            (alg, backend, fingerprint48(format!("{out:?}").as_bytes()))
        });
        assert_eq!(got, ROW_CUT_PINS, "{threads} threads");
    }
}

/// DPP threshold on the grid whose rows the chunks cut: it keeps 9800
/// cells, so its gather worklet's chunks of the kept list are cut at
/// two threads and more. Captured at the commit before that worklet ran
/// on `par`.
const ROW_CUT_THRESHOLD_PIN: (Algorithm, Backend, u64) =
    (Algorithm::Threshold, Backend::Dpp, 166602879894078);

/// The filters that run their isovalues or planes as `par` tasks —
/// contour and slice, both backends — and DPP threshold, whose gather is
/// cut into chunks, keep their pins (each over the whole output, kernel
/// and primitive reports included) at two and three threads: three
/// threads cut the ten isovalues into uneven chunks. Each also runs
/// inside a `par::map` body, twice at once, the way the service's native
/// wave runs a filter, so every task and chunk runs inline.
#[test]
fn task_parallel_filters_keep_their_pins_at_2_and_3_threads_and_inside_a_task() {
    let ds = row_cut_dataset();
    let pins = ROW_CUT_PINS.into_iter().chain([ROW_CUT_THRESHOLD_PIN]);
    for (alg, backend, pin) in pins {
        let run = || {
            let out = alg.default_spec().build_with(backend, &ds).execute(&ds);
            fingerprint48(format!("{out:?}").as_bytes())
        };
        for threads in [2, 3] {
            let direct = par::with_threads(threads, run);
            assert_eq!(direct, pin, "{alg} {backend} at {threads} threads");
            let nested = par::with_threads(threads, || par::map(2, 1, |_| run()));
            assert_eq!(
                nested, [pin; 2],
                "{alg} {backend} in a task at {threads} threads"
            );
        }
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

/// The render class — particle advection, ray tracing, volume rendering
/// — pinned the way the geometry filters are, but over raw bits rather
/// than a `Debug` rendering: every pixel's four `f32` patterns and its
/// depth, every output point, `speed` value and polyline connectivity
/// (`dataset_fingerprint`), and all six counters of every kernel
/// report. Captured at the commit before the samplers, the BVH build
/// and the face gather were rewritten; asserted at 1, 4 and 16 threads.
mod render {
    use super::*;
    use cloverleaf::{Problem, SimConfig, Simulation};
    use powersim::trace::Journal;
    use std::sync::Arc;
    use vizalgo::{
        Filter, FilterOutput, FlowMode, FlowScenario, Fnv1a, ParticleAdvection, RayTracer,
        StepControl, VolumeRenderer,
    };
    use vizmesh::FieldSeries;

    fn fingerprint(out: &FilterOutput) -> u64 {
        let mut h = Fnv1a::new();
        h.update_u64(out.images.len() as u64);
        for img in &out.images {
            h.update_u64(img.width() as u64);
            h.update_u64(img.height() as u64);
            for y in 0..img.height() {
                for x in 0..img.width() {
                    for c in img.get(x, y) {
                        h.update_u64(u64::from(c.to_bits()));
                    }
                    h.update_u64(u64::from(img.depth_at(x, y).to_bits()));
                }
            }
        }
        if let Some(ds) = &out.dataset {
            h.update_u64(dataset_fingerprint(ds));
        }
        for k in &out.kernels {
            h.update(k.name.as_bytes());
            let w = &k.work;
            for v in [
                w.items,
                w.instructions,
                w.flops,
                w.bytes_read,
                w.bytes_written,
                w.working_set_bytes,
            ] {
                h.update_u64(v);
            }
        }
        h.finish48()
    }

    /// Three exports of a 16³ `TwoState` run (steps 8, 16 and 24): real
    /// hydro fields with a shock front in them.
    fn two_state_series() -> FieldSeries {
        let mut sim = Simulation::new(Problem::TwoState, 16, SimConfig::default());
        let mut series = FieldSeries::with_capacity(3);
        sim.run_steps_recording(24, 8, &mut series, &mut Journal::off());
        assert_eq!(series.len(), 3);
        series
    }

    /// A `12 × 9 × 7`-cell grid off the origin with unequal spacings (a
    /// stride or axis mix-up is invisible on a cube), a smooth
    /// non-separable `energy` and a rotation about a tilted axis that
    /// speeds up from frame to frame.
    fn slab_series() -> FieldSeries {
        let grid = UniformGrid::from_cell_dims(
            [12, 9, 7],
            Aabb::new(Vec3::new(-0.3, 0.2, 1.0), Vec3::new(1.5, 1.1, 1.84)),
        );
        let c = grid.bounds().center();
        let energy: Vec<f64> = (0..grid.num_points())
            .map(|p| {
                let q = grid.point_coord_id(p);
                (3.0 * q.x * q.y - 2.0 * q.z).sin() + 0.5 * (q.x + 2.0 * q.y * q.z).cos()
            })
            .collect();
        let mut series = FieldSeries::with_capacity(3);
        for (frame, gain) in [1.0, 1.6, 2.5].into_iter().enumerate() {
            let velocity: Vec<Vec3> = (0..grid.num_points())
                .map(|p| Vec3::new(0.2, 1.0, 0.4).cross(grid.point_coord_id(p) - c) * gain)
                .collect();
            let ds = DataSet::uniform(grid.clone())
                .with_field(Field::scalar("energy", Association::Points, energy.clone()))
                .with_field(Field::vector("velocity", Association::Points, velocity));
            series.record(0.05 * frame as f64, Arc::new(ds));
        }
        series
    }

    /// The four render-class outputs of one series: fixed-step
    /// streamlines and both renderers on its last frame, adaptive
    /// pathlines through all three.
    fn outputs(series: &FieldSeries, step_fraction: f64) -> [u64; 4] {
        let (_, last) = series.get(series.len() - 1).expect("three frames");
        let streamlines = ParticleAdvection::new("velocity", 64, 150, step_fraction, 7);
        let pathlines = ParticleAdvection::new("velocity", 40, 60, step_fraction, 11)
            .with_scenario(FlowScenario {
                mode: FlowMode::Pathline,
                step_control: StepControl::Adaptive { tol: 1e-6 },
                ..FlowScenario::default()
            });
        [
            fingerprint(&streamlines.execute(last)),
            fingerprint(&pathlines.execute_series(series)),
            fingerprint(&RayTracer::new("energy", 48, 40, 3).execute(last)),
            fingerprint(&VolumeRenderer::new("energy", 48, 40, 3).execute(last)),
        ]
    }

    /// `outputs` of the `TwoState` series, then of the slab series.
    const PINS: [[u64; 4]; 2] = [
        [
            18303836942562,
            1742132235892,
            246140721416057,
            54987369516326,
        ],
        [
            78635738077766,
            97879418617477,
            198159564775326,
            246258393409061,
        ],
    ];

    #[test]
    fn render_outputs_and_counters_are_pinned_at_1_4_and_16_threads() {
        let two_state = two_state_series();
        let slab = slab_series();
        for threads in [1, 4, 16] {
            // The hydro flow peaks at 0.1 length units per time unit, so
            // its particles get a long step; the slab's rotation is 30×
            // faster and carries a third of its seeds out of the box.
            let got =
                par::with_threads(threads, || [outputs(&two_state, 0.2), outputs(&slab, 2e-3)]);
            assert_eq!(got, PINS, "{threads} threads");
        }
    }
}
