//! Declarative actions, JSON in the spirit of Ascent's
//! `ascent_actions.json`: the program decodes an action list from text
//! and never writes one.
//!
//! A pipeline's filters and a scene's renderer are each the workspace's
//! canonical [`AlgorithmSpec`] (see `vizalgo::spec` and
//! docs/REGISTRY.md), JSON-tagged by algorithm (`{"type": "contour",
//! ...}`). So an action list can declare any of the eight algorithms in
//! a pipeline, the two renderers included, and every build goes through
//! the one registry-sanctioned construction site,
//! [`AlgorithmSpec::build`].

use vizalgo::spec::AlgorithmSpec;
use vizmesh::json::{self, JsonError, Value};

/// One action in the list.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    AddPipeline {
        name: String,
        filters: Vec<AlgorithmSpec>,
    },
    AddScene {
        name: String,
        renderer: AlgorithmSpec,
    },
}

/// The full declarative document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActionList(pub Vec<Action>);

impl Action {
    /// Decode `{"action": "add_pipeline", "name": .., "filters": [..]}`
    /// or `{"action": "add_scene", "name": .., "renderer": ..}`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, JsonError> {
        let name = || v.str("name").map(str::to_owned);
        match v.str("action")? {
            "add_pipeline" => Ok(Action::AddPipeline {
                name: name()?,
                filters: (v.array("filters")?.iter())
                    .map(AlgorithmSpec::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "add_scene" => Ok(Action::AddScene {
                name: name()?,
                renderer: AlgorithmSpec::from_json(v.field("renderer")?)?,
            }),
            other => Err(JsonError::unknown_tag("action", other)),
        }
    }
}

impl ActionList {
    /// Parse from JSON (the Ascent-style interface): an array of
    /// actions. The text comes from outside the program, so anything
    /// malformed is a [`JsonError`], never a panic.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let document = json::parse(text)?;
        let actions = document.as_array();
        let actions = actions.ok_or(JsonError::wrong("", "an array of actions"))?;
        let actions = actions.iter().map(Action::from_json);
        actions.collect::<Result<_, _>>().map(ActionList)
    }

    pub fn pipelines(&self) -> impl Iterator<Item = (&str, &[AlgorithmSpec])> {
        self.0.iter().filter_map(|a| match a {
            Action::AddPipeline { name, filters } => Some((name.as_str(), filters.as_slice())),
            _ => None,
        })
    }

    pub fn scenes(&self) -> impl Iterator<Item = (&str, &AlgorithmSpec)> {
        self.0.iter().filter_map(|a| match a {
            Action::AddScene { name, renderer } => Some((name.as_str(), renderer)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizalgo::{Algorithm, IsoValues};
    use vizmesh::{Association, DataSet, Field, UniformGrid, Vec3};

    fn dataset() -> DataSet {
        let grid = UniformGrid::cube_cells(6);
        let np = grid.num_points();
        let vals: Vec<f64> = (0..np).map(|p| grid.point_coord_id(p).x).collect();
        DataSet::uniform(grid)
            .with_field(Field::scalar("energy", Association::Points, vals))
            .with_field(Field::vector(
                "velocity",
                Association::Points,
                vec![Vec3::X; np],
            ))
    }

    #[test]
    fn json_round_trip() {
        let json = r#"[
            {"action": "add_pipeline", "name": "pl1",
             "filters": [{"type": "contour", "field": "energy", "isovalues": {"spanning": 10}}]},
            {"action": "add_scene", "name": "s1",
             "renderer": {"type": "volume_rendering", "field": "energy",
                          "width": 64, "height": 64, "images": 50}}
        ]"#;
        let list = ActionList(vec![
            Action::AddPipeline {
                name: "pl1".into(),
                filters: vec![AlgorithmSpec::Contour {
                    field: "energy".into(),
                    isovalues: IsoValues::Spanning(10),
                }],
            },
            Action::AddScene {
                name: "s1".into(),
                renderer: AlgorithmSpec::VolumeRendering {
                    field: "energy".into(),
                    width: 64,
                    height: 64,
                    images: 50,
                },
            },
        ]);
        assert_eq!(ActionList::from_json(json), Ok(list));
    }

    #[test]
    fn parses_handwritten_json() {
        let json = r#"[
            {"action": "add_pipeline", "name": "p",
             "filters": [{"type": "slice", "field": "energy"}]},
            {"action": "add_scene", "name": "s",
             "renderer": {"type": "ray_tracing", "field": "energy",
                          "width": 32, "height": 32, "images": 2}}
        ]"#;
        let list = ActionList::from_json(json).unwrap();
        assert_eq!(list.pipelines().count(), 1);
        assert_eq!(list.scenes().count(), 1);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        use vizmesh::json::MAX_DEPTH;
        let pipeline = |filter: &str| {
            format!(r#"[{{"action": "add_pipeline", "name": "p", "filters": [{filter}]}}]"#)
        };
        let cases: [(String, JsonError); 18] = [
            (
                pipeline(r#"{"type": "smooth", "field": "energy"}"#),
                JsonError::unknown_tag("algorithm type", "smooth"),
            ),
            (
                r#"[{"action": "add_mesh", "name": "m"}]"#.into(),
                JsonError::unknown_tag("action", "add_mesh"),
            ),
            (
                pipeline(r#"{"type": "slice"}"#),
                JsonError::Missing { field: "field" },
            ),
            (
                pipeline(
                    r#"{"type": "ray_tracing", "field": "e", "width": "wide", "height": 4, "images": 1}"#,
                ),
                JsonError::Wrong {
                    field: "width",
                    expected: "a non-negative integer",
                },
            ),
            (
                pipeline(r#"{"type": "threshold", "field": "e", "band": {"upper_fraction": NaN}}"#),
                JsonError::Syntax {
                    offset: 116,
                    expected: "a JSON value",
                },
            ),
            (
                "[] []".into(),
                JsonError::Syntax {
                    offset: 3,
                    expected: "end of input",
                },
            ),
            (
                "[".repeat(10_000),
                JsonError::Syntax {
                    offset: MAX_DEPTH,
                    expected: "at most 128 nested levels",
                },
            ),
            (
                r#"{"action": "add_scene"}"#.into(),
                JsonError::Wrong {
                    field: "",
                    expected: "an array of actions",
                },
            ),
            // Well-formed values a filter constructor would assert on.
            (
                pipeline(r#"{"type": "contour", "field": "e", "isovalues": {"explicit": []}}"#),
                JsonError::wrong("explicit", "at least one isovalue"),
            ),
            (
                pipeline(r#"{"type": "contour", "field": "e", "isovalues": {"spanning": 0}}"#),
                JsonError::wrong("spanning", "a positive integer"),
            ),
            (
                pipeline(
                    r#"{"type": "threshold", "field": "e", "band": {"range": {"min": 2, "max": 1}}}"#,
                ),
                JsonError::wrong("range", "finite bounds with min <= max"),
            ),
            (
                pipeline(
                    r#"{"type": "isovolume", "field": "e", "band": {"range": {"min": 2, "max": 1}}}"#,
                ),
                JsonError::wrong("range", "finite bounds with min <= max"),
            ),
            (
                pipeline(
                    r#"{"type": "spherical_clip", "field": "e", "sphere":
                        {"explicit": {"center": {"x": 0, "y": 0, "z": 0}, "radius": 0}}}"#,
                ),
                JsonError::wrong("radius", "a positive finite number"),
            ),
            (
                pipeline(
                    r#"{"type": "ray_tracing", "field": "e", "width": 0, "height": 4, "images": 1}"#,
                ),
                JsonError::wrong("width", "a positive integer"),
            ),
            (
                r#"[{"action": "add_scene", "name": "s", "renderer":
                    {"type": "volume_rendering", "field": "e", "width": 4, "height": 4, "images": 0}}]"#
                    .into(),
                JsonError::wrong("images", "a positive integer"),
            ),
            (
                pipeline(r#"{"type": "particle_advection", "field": "v", "particles": 0, "steps": 4}"#),
                JsonError::wrong("particles", "a positive integer"),
            ),
            (
                pipeline(r#"{"type": "particle_advection", "field": "v", "particles": 4, "steps": 0}"#),
                JsonError::wrong("steps", "a positive integer"),
            ),
            (
                pipeline(
                    r#"{"type": "particle_advection", "field": "v", "particles": 4, "steps": 4,
                        "step_fraction": 0}"#,
                ),
                JsonError::wrong("step_fraction", "a positive finite number"),
            ),
        ];
        for (text, expect) in cases {
            let shown: String = text.chars().take(80).collect();
            assert_eq!(ActionList::from_json(&text), Err(expect), "{shown}");
        }
    }

    #[test]
    fn every_filter_spec_builds_and_runs() {
        let ds = dataset();
        // The canonical spec covers all eight algorithms — including the
        // two renderers the old insitu-private spec could not declare in
        // a pipeline.
        for name in [
            "contour",
            "threshold",
            "spherical_clip",
            "isovolume",
            "slice",
            "particle_advection",
            "ray_tracing",
            "volume_rendering",
        ] {
            let spec = Algorithm::parse(name).unwrap().default_spec();
            let filter = spec.build(&ds);
            let out = filter.execute(&ds);
            assert!(!out.kernels.is_empty(), "{name} produced no kernels");
        }
        assert!(Algorithm::parse("bogus").is_none());
    }

    #[test]
    fn renderers_build_and_produce_images() {
        let ds = dataset();
        for spec in [
            AlgorithmSpec::RayTracing {
                field: "energy".into(),
                width: 16,
                height: 16,
                images: 2,
            },
            AlgorithmSpec::VolumeRendering {
                field: "energy".into(),
                width: 16,
                height: 16,
                images: 2,
            },
        ] {
            let out = spec.build(&ds).execute(&ds);
            assert_eq!(out.images.len(), 2);
        }
    }
}
