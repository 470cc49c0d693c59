//! Visualization triggers: when a cycle should run the pipelines.

use vizmesh::DataSet;

/// When to trigger an in situ visualization cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Every `n` simulation steps (the common Ascent configuration).
    EveryN { n: u64 },
    /// When a scalar field's finite maximum first exceeds `above`, then
    /// every step while it remains above (NaN and ±Inf are not read).
    FieldMax { field: String, above: f64 },
    /// Both conditions must hold.
    Both { a: Box<Trigger>, b: Box<Trigger> },
}

impl Trigger {
    /// What the step number alone settles about step `step` (1-based):
    /// `Some(fires)` when no data can change the answer, `None` when
    /// [`fires`](Trigger::fires) has to look at the data. The runtime
    /// exports the simulation state only when this is not `Some(false)`.
    pub fn step_verdict(&self, step: u64) -> Option<bool> {
        match self {
            Trigger::EveryN { n } => Some(*n > 0 && step.is_multiple_of(*n)),
            Trigger::FieldMax { .. } => None,
            Trigger::Both { a, b } => match (a.step_verdict(step), b.step_verdict(step)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
        }
    }

    /// Should step `step` (1-based) visualize, given the current data?
    pub fn fires(&self, step: u64, data: &DataSet) -> bool {
        match self {
            Trigger::EveryN { .. } => self.step_verdict(step) == Some(true),
            Trigger::FieldMax { field, above } => data
                .field(field)
                .and_then(|f| f.scalar_range())
                .map(|(_, hi)| hi > *above)
                .unwrap_or(false),
            Trigger::Both { a, b } => a.fires(step, data) && b.fires(step, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Association, Field, UniformGrid};

    fn data(max: f64) -> DataSet {
        let grid = UniformGrid::cube_cells(2);
        let n = grid.num_points();
        let mut vals = vec![0.0; n];
        vals[0] = max;
        DataSet::uniform(grid).with_field(Field::scalar("energy", Association::Points, vals))
    }

    #[test]
    fn every_n_cadence() {
        let t = Trigger::EveryN { n: 10 };
        let d = data(1.0);
        assert!(!t.fires(1, &d));
        assert!(t.fires(10, &d));
        assert!(!t.fires(15, &d));
        assert!(t.fires(20, &d));
        // n = 0 never fires.
        assert!(!Trigger::EveryN { n: 0 }.fires(10, &d));
    }

    #[test]
    fn field_max_threshold() {
        let t = Trigger::FieldMax {
            field: "energy".into(),
            above: 2.0,
        };
        assert!(!t.fires(1, &data(1.5)));
        assert!(t.fires(1, &data(2.5)));
        // Missing field never fires.
        let t2 = Trigger::FieldMax {
            field: "nope".into(),
            above: 0.0,
        };
        assert!(!t2.fires(1, &data(5.0)));
    }

    #[test]
    fn conjunction() {
        let t = Trigger::Both {
            a: Box::new(Trigger::EveryN { n: 2 }),
            b: Box::new(Trigger::FieldMax {
                field: "energy".into(),
                above: 2.0,
            }),
        };
        assert!(t.fires(4, &data(3.0)));
        assert!(!t.fires(3, &data(3.0)));
        assert!(!t.fires(4, &data(1.0)));
    }

    #[test]
    fn step_verdict_decides_what_the_step_number_can() {
        let every = |n| Trigger::EveryN { n };
        let field = || Trigger::FieldMax {
            field: "energy".into(),
            above: 2.0,
        };
        let both = |a, b| Trigger::Both {
            a: Box::new(a),
            b: Box::new(b),
        };
        assert_eq!(every(10).step_verdict(10), Some(true));
        assert_eq!(every(10).step_verdict(11), Some(false));
        assert_eq!(every(0).step_verdict(10), Some(false));
        assert_eq!(field().step_verdict(10), None);
        // One side that cannot fire settles a conjunction, either way
        // round; a side that needs the data keeps it open.
        assert_eq!(both(every(2), field()).step_verdict(3), Some(false));
        assert_eq!(both(field(), every(2)).step_verdict(3), Some(false));
        assert_eq!(both(every(2), field()).step_verdict(4), None);
        assert_eq!(both(every(2), every(3)).step_verdict(6), Some(true));
        assert_eq!(both(every(2), every(3)).step_verdict(4), Some(false));
    }
}
