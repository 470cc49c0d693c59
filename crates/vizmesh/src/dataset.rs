//! Datasets: coordinates + cells + fields.

use crate::bounds::Aabb;
use crate::cells::CellSet;
use crate::field::{Association, Field};
use crate::grid::UniformGrid;
use crate::vec3::Vec3;

/// Coordinate/topology backing of a [`DataSet`].
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// Implicit coordinates and implicit hexahedral topology.
    Uniform(UniformGrid),
    /// Explicit points and explicit connectivity (filter outputs).
    Explicit { points: Vec<Vec3>, cells: CellSet },
}

/// A dataset: geometry plus any number of named fields.
///
/// Mirrors `vtkm::cont::DataSet` at the granularity the study needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSet {
    pub geometry: Geometry,
    pub fields: Vec<Field>,
}

impl DataSet {
    /// Structured dataset over a uniform grid, no fields yet.
    pub fn uniform(grid: UniformGrid) -> Self {
        DataSet {
            geometry: Geometry::Uniform(grid),
            fields: Vec::new(),
        }
    }

    /// Unstructured dataset from explicit points/cells.
    pub fn explicit(points: Vec<Vec3>, cells: CellSet) -> Self {
        if let Some(max) = cells.max_point_id() {
            assert!(
                (max as usize) < points.len(),
                "connectivity references point {max} but only {} points exist",
                points.len()
            );
        }
        DataSet {
            geometry: Geometry::Explicit { points, cells },
            fields: Vec::new(),
        }
    }

    /// The uniform grid, if structured.
    pub fn as_uniform(&self) -> Option<&UniformGrid> {
        match &self.geometry {
            Geometry::Uniform(g) => Some(g),
            Geometry::Explicit { .. } => None,
        }
    }

    /// Explicit points/cells, if unstructured.
    pub fn as_explicit(&self) -> Option<(&[Vec3], &CellSet)> {
        match &self.geometry {
            Geometry::Uniform(_) => None,
            Geometry::Explicit { points, cells } => Some((points, cells)),
        }
    }

    pub fn num_points(&self) -> usize {
        match &self.geometry {
            Geometry::Uniform(g) => g.num_points(),
            Geometry::Explicit { points, .. } => points.len(),
        }
    }

    pub fn num_cells(&self) -> usize {
        match &self.geometry {
            Geometry::Uniform(g) => g.num_cells(),
            Geometry::Explicit { cells, .. } => cells.num_cells(),
        }
    }

    /// Spatial bounds of the geometry (empty box for empty explicit sets).
    pub fn bounds(&self) -> Aabb {
        match &self.geometry {
            Geometry::Uniform(g) => g.bounds(),
            Geometry::Explicit { points, .. } => Aabb::from_points(points.iter().copied()),
        }
    }

    /// Add a field, replacing any existing field with the same name and
    /// association.
    ///
    /// # Panics
    /// If the field length does not match the point/cell count.
    pub fn add_field(&mut self, field: Field) {
        let expect = match field.association {
            Association::Points => self.num_points(),
            Association::Cells => self.num_cells(),
        };
        assert_eq!(
            field.len(),
            expect,
            "field '{}' has {} values but the dataset has {} {:?}",
            field.name,
            field.len(),
            expect,
            field.association
        );
        self.fields
            .retain(|f| !(f.name == field.name && f.association == field.association));
        self.fields.push(field);
    }

    /// Builder-style [`Self::add_field`].
    pub fn with_field(mut self, field: Field) -> Self {
        self.add_field(field);
        self
    }

    /// Look up a field by name (either association).
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Look up a field by name and association.
    pub fn field_with(&self, name: &str, association: Association) -> Option<&Field> {
        self.fields
            .iter()
            .find(|f| f.name == name && f.association == association)
    }

    /// Scalar values of a point field (convenience for the filters).
    pub fn point_scalars(&self, name: &str) -> Option<&[f64]> {
        self.field_with(name, Association::Points)?.as_scalar()
    }

    /// Vector values of a point field.
    pub fn point_vectors(&self, name: &str) -> Option<&[Vec3]> {
        self.field_with(name, Association::Points)?.as_vector()
    }

    /// Scalar values of a cell field.
    pub fn cell_scalars(&self, name: &str) -> Option<&[f64]> {
        self.field_with(name, Association::Cells)?.as_scalar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellShape;

    fn tri_dataset() -> DataSet {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        let mut cells = CellSet::new();
        cells.push(CellShape::Triangle, &[0, 1, 2]);
        DataSet::explicit(points, cells)
    }

    #[test]
    fn uniform_counts() {
        let ds = DataSet::uniform(UniformGrid::cube_cells(4));
        assert_eq!(ds.num_cells(), 64);
        assert_eq!(ds.num_points(), 125);
        assert!(ds.as_uniform().is_some());
        assert!(ds.as_explicit().is_none());
    }

    #[test]
    fn explicit_counts_and_bounds() {
        let ds = tri_dataset();
        assert_eq!(ds.num_points(), 3);
        assert_eq!(ds.num_cells(), 1);
        let b = ds.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn explicit_with_dangling_connectivity_panics() {
        let mut cells = CellSet::new();
        cells.push(CellShape::Triangle, &[0, 1, 5]);
        let _ = DataSet::explicit(vec![Vec3::ZERO, Vec3::X, Vec3::Y], cells);
    }

    #[test]
    fn add_and_replace_field() {
        let mut ds = tri_dataset();
        ds.add_field(Field::scalar("e", Association::Points, vec![1.0, 2.0, 3.0]));
        ds.add_field(Field::scalar("e", Association::Points, vec![4.0, 5.0, 6.0]));
        assert_eq!(ds.fields.len(), 1);
        assert_eq!(ds.point_scalars("e").unwrap(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn same_name_different_association_coexist() {
        let mut ds = tri_dataset();
        ds.add_field(Field::scalar("e", Association::Points, vec![1.0, 2.0, 3.0]));
        ds.add_field(Field::scalar("e", Association::Cells, vec![9.0]));
        assert_eq!(ds.fields.len(), 2);
        assert_eq!(ds.cell_scalars("e").unwrap(), &[9.0]);
        assert_eq!(ds.point_scalars("e").unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_length_field_panics() {
        let mut ds = tri_dataset();
        ds.add_field(Field::scalar("e", Association::Points, vec![1.0]));
    }
}
