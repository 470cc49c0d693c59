//! # vizmesh — mesh and image data model
//!
//! A compact, VTK-m-flavoured scientific data model used by every other
//! crate in the workspace:
//!
//! * [`Vec3`] — double-precision 3-vector with the usual algebra.
//! * [`UniformGrid`] — axis-aligned structured grid of hexahedral cells
//!   (origin + spacing + point dimensions), with point/cell indexing,
//!   trilinear sampling, and the full-grid sweep: [`GridCell`] positions
//!   that step along rows without decoding ids, serially
//!   (`cells`/`points`) or in parallel chunks (`map_cells`/`map_points`).
//! * [`CellSet`] / [`CellShape`] — explicit (unstructured) connectivity
//!   produced by the filters that extract geometry.
//! * [`Field`] — named arrays associated with points or cells.
//! * [`DataSet`] — a coordinate system, a cell set, and any number of
//!   fields; either structured or unstructured.
//! * [`Image`] / [`Camera`] — render targets and a pinhole camera with
//!   orbit generation for image databases.
//! * [`FieldSeries`] — an ordered, bounded ring of
//!   timestamped `Arc<DataSet>` snapshots, the time-varying view that
//!   pathline advection consumes.
//! * [`XorShift`] — the workspace's one seeded random source (particle
//!   seeds, synthetic traffic).
//! * [`par`] — deterministic fork–join (`map`, `for_each_mut`, their
//!   chunk forms, `with_threads`) over `std::thread::scope`: the kernels' only source
//!   of threads, chunk-ordered so output never depends on thread count.
//! * [`json`] — the small JSON value and parser behind the in situ
//!   action-list decoder (inbound only; nothing here writes JSON).
//! * [`WorkCounters`] — the instrumentation record each kernel fills in as
//!   it executes; consumed by the `vizpower` characterization bridge.
//! * `validate` — watertightness / orientation / degenerate-cell
//!   validators used by the conformance suite and the filter tests.
//! * `vtkio` — legacy `.vtk` export so every dataset opens in
//!   ParaView/VisIt.
//!
//! The model deliberately mirrors the subset of VTK-m the paper exercises:
//! uniform hexahedral grids of `double` scalars (CloverLeaf output) and the
//! unstructured triangle/polyline/hex outputs of the eight filters.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod bounds;
mod camera;
mod cells;
mod counters;
pub mod dataset;
mod field;
mod grid;
mod image;
pub mod json;
pub mod par;
mod rng;
mod series;
mod validate;
mod vec3;
mod vtkio;

pub use bounds::Aabb;
pub use camera::{Camera, Ray, View};
pub use cells::{CellSet, CellShape};
pub use counters::WorkCounters;
pub use dataset::DataSet;
pub use field::{Association, Field, FieldData};
pub use grid::{GridCell, UniformGrid};
pub use image::Image;
pub use rng::XorShift;
pub use series::FieldSeries;
pub use validate::{validate_cells, validate_surface, CellReport, SurfaceReport, HEX_TO_TETS};
pub use vec3::Vec3;
pub use vtkio::save_vtk;
