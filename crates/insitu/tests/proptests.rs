//! Property-based tests for the in situ action/trigger layer.

use insitu::{
    Action, ActionList, FilterSpec, IsoValues, RendererSpec, ScalarBand, SphereSpec, Trigger,
};
use propcheck::prelude::*;
use vizmesh::{Association, DataSet, Field, UniformGrid};

fn filter_spec_strategy() -> impl Strategy<Value = FilterSpec> {
    prop_oneof![
        (1usize..20).prop_map(|n| FilterSpec::Contour {
            field: "energy".into(),
            isovalues: IsoValues::Spanning(n),
        }),
        // Fractions are quantized to 1/1000 to keep failing documents
        // readable; the codec itself round-trips any finite f64 bitwise.
        (0u32..1000).prop_map(|q| FilterSpec::Threshold {
            field: "energy".into(),
            band: ScalarBand::UpperFraction(q as f64 / 1000.0),
        }),
        (50u32..500).prop_map(|q| FilterSpec::SphericalClip {
            field: "energy".into(),
            sphere: SphereSpec::RadiusFraction(q as f64 / 1000.0),
        }),
        (100u32..900).prop_map(|q| FilterSpec::Isovolume {
            field: "energy".into(),
            band: ScalarBand::MiddleBand(q as f64 / 1000.0),
        }),
        Just(FilterSpec::Slice {
            field: "energy".into()
        }),
        ((1usize..50), (1usize..50)).prop_map(|(particles, steps)| {
            FilterSpec::ParticleAdvection {
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

fn renderer_spec_strategy() -> impl Strategy<Value = RendererSpec> {
    prop_oneof![
        ((4usize..32), (1usize..6)).prop_map(|(px, images)| RendererSpec::RayTracing {
            field: "energy".into(),
            width: px,
            height: px,
            images,
        }),
        ((4usize..32), (1usize..6)).prop_map(|(px, images)| RendererSpec::VolumeRendering {
            field: "energy".into(),
            width: px,
            height: px,
            images,
        }),
    ]
}

fn action_list_strategy() -> impl Strategy<Value = ActionList> {
    prop::collection::vec(
        prop_oneof![
            (
                prop::collection::vec(filter_spec_strategy(), 1..3),
                "[a-z]{1,8}"
            )
                .prop_map(|(filters, name)| Action::AddPipeline { name, filters }),
            (renderer_spec_strategy(), "[a-z]{1,8}")
                .prop_map(|(renderer, name)| Action::AddScene { name, renderer }),
        ],
        0..5,
    )
    .prop_map(ActionList)
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

    /// Any action list survives a JSON round trip bitwise.
    #[test]
    fn actions_json_round_trip(list in action_list_strategy()) {
        let json = list.to_json();
        let parsed = ActionList::from_json(&json).unwrap();
        prop_assert_eq!(parsed, list);
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
