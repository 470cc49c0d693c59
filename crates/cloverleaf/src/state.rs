//! Field storage for the hydrodynamics state.

use crate::rows::{node_layers, rows, x_runs, Layers, Row, MIN_LEN};
use vizmesh::{par, Association, DataSet, Field, UniformGrid, Vec3};

/// The complete hydrodynamic state on a staggered uniform grid.
///
/// Cell-centered arrays are indexed with the grid's cell ids, node-centered
/// arrays with its point ids (x-fastest linearization).
#[derive(Debug, Clone)]
pub struct State {
    pub grid: UniformGrid,
    /// Cell-centered density.
    pub density: Vec<f64>,
    /// Cell-centered specific internal energy.
    pub energy: Vec<f64>,
    /// Cell-centered pressure (derived by the EOS each step).
    pub pressure: Vec<f64>,
    /// Cell-centered artificial viscosity.
    pub viscosity: Vec<f64>,
    /// Node-centered velocity.
    pub velocity: Vec<Vec3>,
    /// Cell-centered sound speed (derived by the EOS each step).
    pub soundspeed: Vec<f64>,
}

impl State {
    /// A quiescent state: `ρ = 1`, `e = 1`, `u = 0` everywhere.
    pub fn quiescent(grid: UniformGrid) -> Self {
        let nc = grid.num_cells();
        let np = grid.num_points();
        State {
            grid,
            density: vec![1.0; nc],
            energy: vec![1.0; nc],
            pressure: vec![0.0; nc],
            viscosity: vec![0.0; nc],
            velocity: vec![Vec3::ZERO; np],
            soundspeed: vec![0.0; nc],
        }
    }

    /// Total mass `Σ ρ·V` (cell volumes are uniform).
    pub fn total_mass(&self) -> f64 {
        let s = self.grid.spacing();
        let vol = s.x * s.y * s.z;
        self.density.iter().sum::<f64>() * vol
    }

    /// Total internal energy `Σ ρ·e·V`.
    pub fn total_internal_energy(&self) -> f64 {
        let s = self.grid.spacing();
        let vol = s.x * s.y * s.z;
        self.density
            .iter()
            .zip(&self.energy)
            .map(|(&d, &e)| d * e)
            .sum::<f64>()
            * vol
    }

    /// Total kinetic energy `Σ ρ_node·|u|²/2·V_node` (node mass from the
    /// average of adjacent cell densities).
    pub fn total_kinetic_energy(&self) -> f64 {
        let s = self.grid.spacing();
        let vol = s.x * s.y * s.z;
        let rho = self.cell_to_point(&self.density);
        let ke = rho.iter().zip(&self.velocity);
        ke.fold(0.0, |total, (rho, u)| {
            total + 0.5 * rho * u.length_squared() * vol
        })
    }

    /// Cell-centered scalar averaged to the nodes (used to export
    /// point-centered fields for contouring): each node the mean of the
    /// cells that touch it — eight inside, four, two or one on a face,
    /// edge or corner — summed `k`-outermost, `i`-innermost.
    pub(crate) fn cell_to_point(&self, cell_values: &[f64]) -> Vec<f64> {
        assert_eq!(cell_values.len(), self.grid.num_cells());
        let cdims = self.grid.cell_dims();
        let pdims = self.grid.point_dims();
        let mut out = vec![0.0; self.grid.num_points()];
        par::for_each_chunk_zip(&mut out[..], MIN_LEN, |nodes, chunk| {
            for row in rows(pdims, nodes) {
                let out = row.of(chunk);
                node_layers!(cdims, row.j, row.k, mean_row(cell_values, cdims, row, out));
            }
        });
        out
    }

    /// Export the state as a [`DataSet`] with the fields the paper's
    /// visualization pipelines consume: point- and cell-centered
    /// `energy`, cell-centered `density` and `pressure`, and the
    /// node-centered `velocity` vector field.
    pub(crate) fn to_dataset(&self) -> DataSet {
        let mut ds = DataSet::uniform(self.grid.clone());
        ds.add_field(Field::scalar(
            "energy",
            Association::Cells,
            self.energy.clone(),
        ));
        ds.add_field(Field::scalar(
            "energy",
            Association::Points,
            self.cell_to_point(&self.energy),
        ));
        ds.add_field(Field::scalar(
            "density",
            Association::Cells,
            self.density.clone(),
        ));
        ds.add_field(Field::scalar(
            "pressure",
            Association::Cells,
            self.pressure.clone(),
        ));
        ds.add_field(Field::vector(
            "velocity",
            Association::Points,
            self.velocity.clone(),
        ));
        ds
    }
}

/// The node means of one row of nodes (see [`Layers::mean`]).
fn mean_row<const NJ: usize, const NK: usize>(
    values: &[f64],
    cdims: [usize; 3],
    row: Row,
    out: &mut [f64],
) {
    let cells = Layers::<NJ, NK>::new(values, cdims, row.j, row.k);
    for run in x_runs(row, cdims[0]) {
        let nodes = out[run.nodes].iter_mut().zip(run.i0..);
        if run.two {
            nodes.for_each(|(v, i0)| *v = cells.mean::<2>(i0));
        } else {
            nodes.for_each(|(v, i0)| *v = cells.mean::<1>(i0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> State {
        State::quiescent(UniformGrid::cube_cells(4))
    }

    #[test]
    fn quiescent_invariants() {
        let s = small();
        assert!((s.total_mass() - 1.0).abs() < 1e-12, "unit cube of ρ = 1");
        assert!((s.total_internal_energy() - 1.0).abs() < 1e-12);
        assert_eq!(s.total_kinetic_energy(), 0.0);
    }

    #[test]
    fn node_density_interior_and_corner() {
        // Density at a node: mean of the adjacent cells (1–8 of them).
        let node_density = |s: &State, p| s.cell_to_point(&s.density)[p];
        let mut s = small();
        // Uniform density: every node sees 1.0.
        assert!((node_density(&s, 0) - 1.0).abs() < 1e-12);
        // Make one corner cell heavy; the corner node sees only that cell.
        s.density[0] = 9.0;
        assert!((node_density(&s, s.grid.point_id(0, 0, 0)) - 9.0).abs() < 1e-12);
        // An interior node adjacent to the heavy cell averages 8 cells.
        let interior = s.grid.point_id(1, 1, 1);
        assert!((node_density(&s, interior) - (9.0 + 7.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn cell_to_point_constant_field() {
        let s = small();
        let vals = vec![3.5; s.grid.num_cells()];
        let pts = s.cell_to_point(&vals);
        assert!(pts.iter().all(|&v| (v - 3.5).abs() < 1e-12));
    }

    #[test]
    fn cell_to_point_preserves_linear_gradient_direction() {
        let s = small();
        // Cell field increasing with x: point field must too.
        let vals: Vec<f64> = (0..s.grid.num_cells())
            .map(|c| s.grid.cell_at(c).ijk()[0] as f64)
            .collect();
        let pts = s.cell_to_point(&vals);
        let left = pts[s.grid.point_id(0, 2, 2)];
        let right = pts[s.grid.point_id(4, 2, 2)];
        assert!(right > left);
    }

    #[test]
    fn dataset_export_has_expected_fields() {
        let s = small();
        let ds = s.to_dataset();
        assert!(ds.point_scalars("energy").is_some());
        assert!(ds.cell_scalars("energy").is_some());
        assert!(ds.cell_scalars("density").is_some());
        assert!(ds.cell_scalars("pressure").is_some());
        assert!(ds.point_vectors("velocity").is_some());
        assert_eq!(ds.num_cells(), 64);
    }
}
