//! Initial-condition problems.

use crate::eos;
use crate::state::State;
use vizmesh::{UniformGrid, Vec3};

/// Built-in problem definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// CloverLeaf's standard benchmark: a cold, dense background with a
    /// hot, light source region in the low corner. Drives an energy front
    /// diagonally through the box.
    TwoState,
    /// A hot sphere at the domain center; useful for the spherical-clip
    /// and isovolume demos because the resulting field is radially
    /// symmetric.
    HotSphere,
    /// Three hot slabs of different strengths; produces a multi-front
    /// field with rich contour topology.
    TripleSlab,
}

impl Problem {
    /// Construct the initial [`State`] on a grid of `n³` cells over the
    /// unit cube.
    pub(crate) fn build(self, n: usize) -> State {
        self.build_on(UniformGrid::cube_cells(n))
    }

    /// Construct the initial [`State`] on an arbitrary grid.
    pub fn build_on(self, grid: UniformGrid) -> State {
        let mut s = State::quiescent(grid);
        match self {
            Problem::TwoState => {
                // Background: ρ = 0.2, e = 1.0  (CloverLeaf state 1)
                // Source:     ρ = 1.0, e = 2.5  in [0, 0.3]³ of the unit cube
                let b = s.grid.bounds();
                let ext = b.extent();
                for c in 0..s.grid.num_cells() {
                    let p = s.grid.cell_at(c).center();
                    let rel = Vec3::new(
                        (p.x - b.min.x) / ext.x,
                        (p.y - b.min.y) / ext.y,
                        (p.z - b.min.z) / ext.z,
                    );
                    if rel.x < 0.3 && rel.y < 0.3 && rel.z < 0.3 {
                        s.density[c] = 1.0;
                        s.energy[c] = 2.5;
                    } else {
                        s.density[c] = 0.2;
                        s.energy[c] = 1.0;
                    }
                }
            }
            Problem::HotSphere => {
                let b = s.grid.bounds();
                let center = b.center();
                let radius = b.diagonal() * 0.15;
                for c in 0..s.grid.num_cells() {
                    let p = s.grid.cell_at(c).center();
                    if p.distance(center) < radius {
                        s.density[c] = 1.0;
                        s.energy[c] = 3.0;
                    } else {
                        s.density[c] = 0.25;
                        s.energy[c] = 1.0;
                    }
                }
            }
            Problem::TripleSlab => {
                let b = s.grid.bounds();
                let ext = b.extent();
                for c in 0..s.grid.num_cells() {
                    let p = s.grid.cell_at(c).center();
                    let rx = (p.x - b.min.x) / ext.x;
                    let (rho, e) = if rx < 0.2 {
                        (1.0, 2.0)
                    } else if rx < 0.45 {
                        (0.4, 1.0)
                    } else if rx < 0.65 {
                        (0.8, 1.6)
                    } else {
                        (0.2, 1.0)
                    };
                    s.density[c] = rho;
                    s.energy[c] = e;
                }
            }
        }
        // Initialize pressure and sound speed so the first CFL computation
        // is meaningful.
        for c in 0..s.grid.num_cells() {
            s.pressure[c] = eos::pressure(s.density[c], s.energy[c]);
            s.soundspeed[c] = eos::sound_speed(s.density[c], s.pressure[c]);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_has_hot_corner() {
        let s = Problem::TwoState.build(8);
        // Cell 0 is in the source region.
        assert_eq!(s.energy[0], 2.5);
        assert_eq!(s.density[0], 1.0);
        // Far corner is background.
        let far = s.grid.num_cells() - 1;
        assert_eq!(s.energy[far], 1.0);
        assert_eq!(s.density[far], 0.2);
    }

    #[test]
    fn pressure_initialized_consistently() {
        let s = Problem::TwoState.build(4);
        for c in 0..s.grid.num_cells() {
            let expect = eos::pressure(s.density[c], s.energy[c]);
            assert!((s.pressure[c] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn hot_sphere_is_radially_symmetric() {
        let s = Problem::HotSphere.build(8);
        let g = &s.grid;
        // Mirror cells across the center have equal energy.
        for (a, b) in [((1, 2, 3), (6, 5, 4)), ((0, 0, 0), (7, 7, 7))] {
            let ca = g.cell_id(a.0, a.1, a.2);
            let cb = g.cell_id(b.0, b.1, b.2);
            assert_eq!(s.energy[ca], s.energy[cb]);
        }
    }

    #[test]
    fn triple_slab_has_three_energy_levels() {
        let s = Problem::TripleSlab.build(16);
        let mut levels: Vec<u64> = s.energy.iter().map(|e| (e * 10.0) as u64).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), 3, "expected 3 distinct energies");
    }

    #[test]
    fn all_problems_have_positive_state() {
        for p in [Problem::TwoState, Problem::HotSphere, Problem::TripleSlab] {
            let s = p.build(6);
            assert!(s.density.iter().all(|&d| d > 0.0));
            assert!(s.energy.iter().all(|&e| e > 0.0));
            assert!(s.pressure.iter().all(|&p| p > 0.0));
        }
    }
}
