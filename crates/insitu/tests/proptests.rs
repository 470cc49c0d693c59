//! Property-based tests for the in situ action/trigger layer.

use insitu::{Action, ActionList, Scene, Trigger};
use propcheck::prelude::*;
use vizalgo::{AlgorithmSpec, IsoValues, ScalarBand, SphereSpec};
use vizmesh::{Association, DataSet, Field, UniformGrid, Vec3};

fn filter_spec_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        (1usize..20).prop_map(|n| AlgorithmSpec::Contour {
            field: "energy".into(),
            isovalues: IsoValues::Spanning(n),
        }),
        // Fractions are quantized to 1/1000 to keep failing inputs
        // readable.
        (0u32..1000).prop_map(|q| AlgorithmSpec::Threshold {
            field: "energy".into(),
            band: ScalarBand::UpperFraction(q as f64 / 1000.0),
        }),
        (50u32..500).prop_map(|q| AlgorithmSpec::SphericalClip {
            field: "energy".into(),
            sphere: SphereSpec::RadiusFraction(q as f64 / 1000.0),
        }),
        (100u32..900).prop_map(|q| AlgorithmSpec::Isovolume {
            field: "energy".into(),
            band: ScalarBand::MiddleBand(q as f64 / 1000.0),
        }),
        Just(AlgorithmSpec::Slice {
            field: "energy".into()
        }),
        ((1usize..50), (1usize..50)).prop_map(|(particles, steps)| {
            AlgorithmSpec::ParticleAdvection {
                field: "velocity".into(),
                particles,
                steps,
                step_fraction: 5e-4,
                seed: 0x5eed_1234,
                scenario: Default::default(),
            }
        }),
    ]
}

fn renderer_spec_strategy() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        ((4usize..32), (1usize..6)).prop_map(|(px, images)| AlgorithmSpec::RayTracing {
            field: "energy".into(),
            width: px,
            height: px,
            images,
        }),
        ((4usize..32), (1usize..6)).prop_map(|(px, images)| AlgorithmSpec::VolumeRendering {
            field: "energy".into(),
            width: px,
            height: px,
            images,
        }),
    ]
}

/// A name of one to eight lowercase letters, drawn as a length and then
/// one letter per character (so shrinking heads for `"a"`).
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(b'a'..b'{', 1..9)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn action_list_strategy() -> impl Strategy<Value = ActionList> {
    prop::collection::vec(
        prop_oneof![
            (
                prop::collection::vec(filter_spec_strategy(), 1..3),
                name_strategy()
            )
                .prop_map(|(filters, name)| Action::AddPipeline { name, filters }),
            (renderer_spec_strategy(), name_strategy())
                .prop_map(|(renderer, name)| Action::AddScene { name, renderer }),
        ],
        0..5,
    )
    .prop_map(ActionList)
}

/// One filter or renderer document per algorithm and scenario axis.
/// `I0`, `I1`, ... stand for drawn integers, `F0`, `F1`, ... for drawn
/// floats (four of each are drawn).
const SPEC_TEMPLATES: [&str; 18] = [
    r#"{"type": "contour", "field": "energy", "isovalues": {"spanning": I0}}"#,
    r#"{"type": "contour", "field": "energy", "isovalues": {"explicit": [F0, F1]}}"#,
    r#"{"type": "threshold", "field": "energy", "band": {"upper_fraction": F0}}"#,
    r#"{"type": "threshold", "field": "energy", "band": {"range": {"min": F0, "max": F1}}}"#,
    r#"{"type": "spherical_clip", "field": "energy", "sphere": {"radius_fraction": F0}}"#,
    r#"{"type": "spherical_clip", "field": "energy", "sphere":
        {"explicit": {"center": {"x": F0, "y": F1, "z": F2}, "radius": F3}}}"#,
    r#"{"type": "isovolume", "field": "energy", "band": {"middle_band": F0}}"#,
    r#"{"type": "isovolume", "field": "energy", "band": {"range": {"min": F0, "max": F1}}}"#,
    r#"{"type": "slice", "field": "energy"}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "step_fraction": F0, "seed": I2}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "scenario": {"mode": "Pathline"}}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "scenario": {"seeding": "SparseGrid"}}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "scenario": {"seeding": "AlongFeature", "step_control": {"Adaptive": {"tol": F0}}}}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "step_fraction": F1, "scenario": {"termination": "ExitDomain"}}"#,
    r#"{"type": "particle_advection", "field": "velocity", "particles": I0, "steps": I1,
        "scenario": {"termination": {"MaxTime": {"t_end": F0}}}}"#,
    r#"{"type": "ray_tracing", "field": "energy", "width": I0, "height": I1, "images": I2}"#,
    r#"{"type": "volume_rendering", "field": "energy", "width": I0, "height": I1, "images": I2}"#,
];

/// Floats at the edges of what a spec accepts, written as `{:?}` text.
const EDGE_FLOATS: [f64; 8] = [-1.0, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.0, 1e300];

/// A spec document: a template with its placeholders filled.
fn spec_document_strategy() -> impl Strategy<Value = String> {
    let float = (0..EDGE_FLOATS.len()).prop_map(|i| format!("{:?}", EDGE_FLOATS[i]));
    (
        0..SPEC_TEMPLATES.len(),
        prop::array::uniform4(0u64..17),
        prop::array::uniform4(float),
    )
        .prop_map(|(template, ints, floats)| {
            let mut text = SPEC_TEMPLATES[template].to_owned();
            for (i, n) in ints.iter().enumerate() {
                text = text.replace(&format!("I{i}"), &n.to_string());
            }
            for (i, x) in floats.iter().enumerate() {
                text = text.replace(&format!("F{i}"), x);
            }
            text
        })
}

/// An action-list document of up to four pipelines and scenes.
fn action_document_strategy() -> impl Strategy<Value = String> {
    let action = prop_oneof![
        (
            prop::collection::vec(spec_document_strategy(), 1..3),
            name_strategy()
        )
            .prop_map(|(filters, name)| format!(
                r#"{{"action": "add_pipeline", "name": "{name}", "filters": [{}]}}"#,
                filters.join(", ")
            )),
        (spec_document_strategy(), name_strategy()).prop_map(|(renderer, name)| format!(
            r#"{{"action": "add_scene", "name": "{name}", "renderer": {renderer}}}"#
        )),
    ];
    prop::collection::vec(action, 0..5).prop_map(|actions| format!("[{}]", actions.join(",\n")))
}

/// A 4³ grid with a point `energy` scalar and a swirling point
/// `velocity`, the two fields the templates name.
fn flow_dataset() -> DataSet {
    let grid = UniformGrid::cube_cells(4);
    let points: Vec<Vec3> = (0..grid.num_points())
        .map(|p| grid.point_coord_id(p))
        .collect();
    let energy = points.iter().map(|p| p.x + 2.0 * p.y * p.y - p.z).collect();
    let velocity = (points.iter())
        .map(|p| Vec3::new(0.5 - p.y, p.x - 0.5, 0.25))
        .collect();
    DataSet::uniform(grid)
        .with_field(Field::scalar("energy", Association::Points, energy))
        .with_field(Field::vector("velocity", Association::Points, velocity))
}

/// A trigger tree over `leaves` (at least one), split in halves.
fn trigger_tree(leaves: &[Trigger]) -> Trigger {
    match leaves {
        [leaf] => leaf.clone(),
        _ => {
            let (a, b) = leaves.split_at(leaves.len() / 2);
            Trigger::Both {
                a: Box::new(trigger_tree(a)),
                b: Box::new(trigger_tree(b)),
            }
        }
    }
}

/// `EveryN` (including the never-firing `n = 0`) / `FieldMax` / `Both`
/// trees of one to six leaves; the data the tests ask about has an
/// `energy` maximum of 1.0 and no `missing` field.
fn trigger_strategy() -> impl Strategy<Value = Trigger> {
    let leaf = prop_oneof![
        (0u64..6).prop_map(|n| Trigger::EveryN { n }),
        (-1.0f64..3.0).prop_map(|above| Trigger::FieldMax {
            field: "energy".into(),
            above,
        }),
        Just(Trigger::FieldMax {
            field: "missing".into(),
            above: 0.0,
        }),
    ];
    prop::collection::vec(leaf, 1..7).prop_map(|leaves| trigger_tree(&leaves))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the step number alone settles is what the data-aware
    /// evaluation answers, so skipping the export on `Some(false)` can
    /// never skip a cycle.
    #[test]
    fn step_verdict_agrees_with_fires(trigger in trigger_strategy(), step in 1u64..40) {
        let grid = UniformGrid::cube_cells(2);
        let np = grid.num_points();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vec![1.0; np]));
        if let Some(verdict) = trigger.step_verdict(step) {
            prop_assert_eq!(verdict, trigger.fires(step, &ds), "{:?} at step {}", trigger, step);
        }
    }

    /// Pipelines and scenes partition the action list.
    #[test]
    fn pipelines_and_scenes_partition(list in action_list_strategy()) {
        let total = list.0.len();
        prop_assert_eq!(list.pipelines().count() + list.scenes().count(), total);
    }

    /// EveryN fires exactly floor(total / n) times over a run.
    #[test]
    fn every_n_cadence_counts(n in 1u64..20, total in 0u64..100) {
        let grid = UniformGrid::cube_cells(2);
        let np = grid.num_points();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vec![0.0; np]));
        let t = Trigger::EveryN { n };
        let fired = (1..=total).filter(|&s| t.fires(s, &ds)).count() as u64;
        prop_assert_eq!(fired, total / n);
    }

    /// Conjunction is commutative and never fires more than either arm.
    #[test]
    fn both_is_an_intersection(n in 1u64..10, above in -1.0f64..2.0, step in 1u64..50) {
        let grid = UniformGrid::cube_cells(2);
        let np = grid.num_points();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vec![1.0; np]));
        let a = Trigger::EveryN { n };
        let b = Trigger::FieldMax { field: "energy".into(), above };
        let ab = Trigger::Both { a: Box::new(a.clone()), b: Box::new(b.clone()) };
        let ba = Trigger::Both { a: Box::new(b.clone()), b: Box::new(a.clone()) };
        prop_assert_eq!(ab.fires(step, &ds), ba.fires(step, &ds));
        if ab.fires(step, &ds) {
            prop_assert!(a.fires(step, &ds) && b.fires(step, &ds));
        }
    }
}

proptest! {
    // Cheap cases (a 4³ grid, at most 16 particles or pixels per axis),
    // so enough of them that every template meets its edge values.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the decoder accepts runs: every filter builds and
    /// executes and every scene renders, without a panic.
    #[test]
    fn any_decoded_action_list_builds_and_runs(text in action_document_strategy()) {
        let Ok(list) = ActionList::from_json(&text) else {
            return;
        };
        let ds = flow_dataset();
        for (_, filters) in list.pipelines() {
            for spec in filters {
                spec.build(&ds).execute(&ds);
            }
        }
        for (name, renderer) in list.scenes() {
            Scene::new(name, renderer.clone()).render(&ds, 0).expect("no sink, no I/O");
        }
    }
}
