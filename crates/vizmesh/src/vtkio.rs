//! Legacy VTK (ASCII) export.
//!
//! Every dataset in the workspace can be written as a legacy `.vtk` file
//! and opened in ParaView or VisIt — the tools built on the ecosystem
//! the paper studies. Structured datasets export as
//! `STRUCTURED_POINTS`, unstructured ones as `UNSTRUCTURED_GRID`.

use crate::cells::CellShape;
use crate::dataset::{DataSet, Geometry};
use crate::field::{Association, FieldData};
use std::io::{self, Write};
use std::path::Path;

/// VTK legacy cell-type codes.
fn vtk_cell_type(shape: CellShape) -> u8 {
    match shape {
        CellShape::Vertex => 1,
        CellShape::PolyLine => 4,
        CellShape::Line => 3,
        CellShape::Triangle => 5,
        CellShape::Polygon => 7,
        CellShape::Quad => 9,
        CellShape::Tetra => 10,
        CellShape::Hexahedron => 12,
        CellShape::Pyramid => 14,
        CellShape::Wedge => 13,
    }
}

/// Write `ds` as a legacy ASCII VTK file.
pub(crate) fn write_vtk<W: Write>(w: &mut W, ds: &DataSet, title: &str) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "{}", title.lines().next().unwrap_or("vizmesh dataset"))?;
    writeln!(w, "ASCII")?;
    match &ds.geometry {
        Geometry::Uniform(grid) => {
            let [nx, ny, nz] = grid.point_dims();
            let o = grid.origin();
            let s = grid.spacing();
            writeln!(w, "DATASET STRUCTURED_POINTS")?;
            writeln!(w, "DIMENSIONS {nx} {ny} {nz}")?;
            writeln!(w, "ORIGIN {} {} {}", o.x, o.y, o.z)?;
            writeln!(w, "SPACING {} {} {}", s.x, s.y, s.z)?;
        }
        Geometry::Explicit { points, cells } => {
            writeln!(w, "DATASET UNSTRUCTURED_GRID")?;
            writeln!(w, "POINTS {} double", points.len())?;
            for p in points {
                writeln!(w, "{} {} {}", p.x, p.y, p.z)?;
            }
            let total = cells.num_cells() + cells.connectivity_len();
            writeln!(w, "CELLS {} {}", cells.num_cells(), total)?;
            for (_, conn) in cells.iter() {
                write!(w, "{}", conn.len())?;
                for &p in conn {
                    write!(w, " {p}")?;
                }
                writeln!(w)?;
            }
            writeln!(w, "CELL_TYPES {}", cells.num_cells())?;
            for (shape, _) in cells.iter() {
                writeln!(w, "{}", vtk_cell_type(shape))?;
            }
        }
    }

    // Fields, grouped by association; the section header is emitted
    // lazily so empty groups write nothing.
    for association in [Association::Points, Association::Cells] {
        let mut header_written = false;
        for f in ds
            .fields
            .iter()
            .filter(|f| f.association == association && !f.is_empty())
        {
            if !header_written {
                match association {
                    Association::Points => writeln!(w, "POINT_DATA {}", ds.num_points())?,
                    Association::Cells => writeln!(w, "CELL_DATA {}", ds.num_cells())?,
                }
                header_written = true;
            }
            let name = f.name.replace(char::is_whitespace, "_");
            match &f.data {
                FieldData::Scalar(values) => {
                    writeln!(w, "SCALARS {name} double 1")?;
                    writeln!(w, "LOOKUP_TABLE default")?;
                    for v in values {
                        writeln!(w, "{v}")?;
                    }
                }
                FieldData::Vector(values) => {
                    writeln!(w, "VECTORS {name} double")?;
                    for v in values {
                        writeln!(w, "{} {} {}", v.x, v.y, v.z)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Convenience: write to a file path.
pub fn save_vtk<P: AsRef<Path>>(path: P, ds: &DataSet, title: &str) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_vtk(&mut f, ds, title)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellSet;
    use crate::field::Field;
    use crate::grid::UniformGrid;
    use crate::vec3::Vec3;

    fn render(ds: &DataSet) -> String {
        let mut out = Vec::new();
        write_vtk(&mut out, ds, "test").unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn structured_header_and_dims() {
        let grid = UniformGrid::cube_cells(2);
        let n = grid.num_points();
        let ds = DataSet::uniform(grid).with_field(Field::scalar(
            "energy",
            Association::Points,
            vec![1.5; n],
        ));
        let text = render(&ds);
        assert!(text.starts_with("# vtk DataFile Version 3.0"));
        assert!(text.contains("DATASET STRUCTURED_POINTS"));
        assert!(text.contains("DIMENSIONS 3 3 3"));
        assert!(text.contains("POINT_DATA 27"));
        assert!(text.contains("SCALARS energy double 1"));
        assert_eq!(text.matches("1.5").count(), 27);
    }

    #[test]
    fn unstructured_cells_and_types() {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z];
        let mut cells = CellSet::new();
        cells.push(CellShape::Triangle, &[0, 1, 2]);
        cells.push(CellShape::Tetra, &[0, 1, 2, 3]);
        let mut ds = DataSet::explicit(points, cells);
        ds.add_field(Field::scalar("v", Association::Cells, vec![7.0, 8.0]));
        let text = render(&ds);
        assert!(text.contains("DATASET UNSTRUCTURED_GRID"));
        assert!(text.contains("POINTS 4 double"));
        // CELLS count and size: 2 cells, 3+1 + 4+1 entries.
        assert!(text.contains("CELLS 2 9"));
        assert!(text.contains("CELL_TYPES 2"));
        // Triangle = 5, tetra = 10, on their own lines.
        let after_types = text.split("CELL_TYPES 2").nth(1).unwrap();
        let types: Vec<&str> = after_types.trim().lines().take(2).collect();
        assert_eq!(types, vec!["5", "10"]);
        assert!(text.contains("CELL_DATA 2"));
    }

    #[test]
    fn vector_fields_export() {
        let grid = UniformGrid::cube_cells(1);
        let n = grid.num_points();
        let ds = DataSet::uniform(grid).with_field(Field::vector(
            "velocity",
            Association::Points,
            vec![Vec3::new(1.0, 2.0, 3.0); n],
        ));
        let text = render(&ds);
        assert!(text.contains("VECTORS velocity double"));
        assert!(text.contains("1 2 3"));
    }

    #[test]
    fn field_names_are_sanitized() {
        let grid = UniformGrid::cube_cells(1);
        let n = grid.num_points();
        let ds = DataSet::uniform(grid).with_field(Field::scalar(
            "my field",
            Association::Points,
            vec![0.0; n],
        ));
        let text = render(&ds);
        assert!(text.contains("SCALARS my_field double 1"));
    }

    /// Golden bytes: a structured export is pinned line-for-line, so any
    /// formatting drift (float printing, header order, grouping) fails
    /// loudly rather than silently changing what ParaView ingests.
    #[test]
    fn structured_golden_bytes() {
        let grid = UniformGrid::cube_cells(1);
        let n = grid.num_points();
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ds = DataSet::uniform(grid)
            .with_field(Field::scalar("e", Association::Points, vals))
            .with_field(Field::scalar("c", Association::Cells, vec![7.25]));
        let mut out = Vec::new();
        write_vtk(&mut out, &ds, "golden\nsecond line ignored").unwrap();
        let expected = "\
# vtk DataFile Version 3.0
golden
ASCII
DATASET STRUCTURED_POINTS
DIMENSIONS 2 2 2
ORIGIN 0 0 0
SPACING 1 1 1
POINT_DATA 8
SCALARS e double 1
LOOKUP_TABLE default
0
0.5
1
1.5
2
2.5
3
3.5
CELL_DATA 1
SCALARS c double 1
LOOKUP_TABLE default
7.25
";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    /// Golden bytes for the unstructured path: points, CSR cells, cell
    /// types, and a vector field, pinned exactly.
    #[test]
    fn unstructured_golden_bytes() {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::new(0.25, 0.5, 1.0)];
        let mut cells = CellSet::new();
        cells.push(CellShape::Triangle, &[0, 1, 2]);
        cells.push(CellShape::PolyLine, &[0, 1, 3]);
        let ds = DataSet::explicit(points, cells).with_field(Field::vector(
            "velocity",
            Association::Points,
            vec![Vec3::new(1.0, 2.0, 3.0); 4],
        ));
        let mut out = Vec::new();
        write_vtk(&mut out, &ds, "golden").unwrap();
        let expected = "\
# vtk DataFile Version 3.0
golden
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 0 0
1 0 0
0 1 0
0.25 0.5 1
CELLS 2 8
3 0 1 2
3 0 1 3
CELL_TYPES 2
5
4
POINT_DATA 4
VECTORS velocity double
1 2 3
1 2 3
1 2 3
1 2 3
";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn polyline_exports_with_arity() {
        let points = vec![Vec3::ZERO, Vec3::X, Vec3::new(2.0, 0.0, 0.0)];
        let mut cells = CellSet::new();
        cells.push(CellShape::PolyLine, &[0, 1, 2]);
        let ds = DataSet::explicit(points, cells);
        let text = render(&ds);
        assert!(text.contains("CELLS 1 4"));
        assert!(text.contains("\n3 0 1 2\n"));
        assert!(text
            .split("CELL_TYPES 1")
            .nth(1)
            .unwrap()
            .trim()
            .starts_with('4'));
    }
}
