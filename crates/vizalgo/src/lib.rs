//! # vizalgo — the eight visualization algorithms
//!
//! From-scratch, shared-memory-parallel (`vizmesh::par`) implementations
//! of the eight algorithms the paper studies (§III-B), mirroring their
//! VTK-m counterparts:
//!
//! | module | algorithm | paper §III-B |
//! |---|---|---|
//! | [`contour`] | Marching-cubes isosurface (10 isovalues/cycle) | 1 |
//! | `threshold` | Cell filtering by scalar range | 2 |
//! | `clip` | Spherical clip with cell subdivision | 3 |
//! | `isovolume` | Scalar-range volume extraction | 4 |
//! | `slice` | Three axis-aligned slices via signed distance + contour | 5 |
//! | `advection` | RK4 particle advection → streamlines / pathlines | 6 |
//! | [`raytrace`] | External-face ray tracing with a BVH (50 images) | 7 |
//! | `volren` | Volume rendering by ray marching (50 images) | 8 |
//!
//! Every algorithm implements [`Filter`] and reports the
//! work it performed as a list of per-kernel
//! [`KernelReport`]s. The reports drive the
//! simulated-processor experiments in the `vizpower` crate; the *outputs*
//! (meshes, streamlines, images) are real and are validated by this
//! crate's tests.
//!
//! [`marching_tetra`] is an independent isosurface implementation used as
//! a cross-check oracle in property tests, and `tetclip` is the shared
//! tetrahedral clipping engine — the clip core and the one
//! hex-subdivision walk — behind `clip` and `isovolume`. The
//! [`arena`] module holds the flat-arena primitives the kernel hot paths
//! share: packed-key vertex-welding maps and reusable clip scratch
//! buffers (see docs/PERFORMANCE.md for the policy they implement).
//!
//! The [`dpp`] module is the second execution backend: the same
//! resolved filter structs ([`Contour`], [`Threshold`], [`Isovolume`],
//! [`ThreeSlice`]) executed over an instrumented
//! data-parallel-primitive vocabulary (map / scan / gather / scatter /
//! compact / sort / reduce-by-key) that calls the traditional filters'
//! per-cell bodies, selectable per spec via [`Backend`] and
//! [`AlgorithmSpec::build_with`](spec::AlgorithmSpec::build_with) (see
//! docs/DPP.md).
//!
//! The `registry` module is the single source of truth describing the
//! eight algorithms (names, aliases, kernel taxonomy, cell-centered
//! flags), and [`spec`] carries the canonical serializable
//! [`AlgorithmSpec`] plan layer —
//! [`AlgorithmSpec::build_with`](spec::AlgorithmSpec::build_with) is the
//! workspace's one sanctioned filter-construction site (enforced by
//! clippy's `disallowed_methods`, configured in the root `clippy.toml`;
//! see docs/REGISTRY.md).

#![allow(
    clippy::disallowed_methods,
    reason = "the filter constructors and the registry that calls them live here"
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod advection;
pub mod arena;
mod clip;
pub mod colormap;
pub mod contour;
pub mod dpp;
mod filter;
mod fingerprint;
mod gradient;
mod isovolume;
pub mod marching_tetra;
pub mod raytrace;
mod registry;
mod slice;
pub mod spec;
mod tetclip;
mod threshold;
mod volren;

/// Fewest cells or points worth a `par` chunk in the per-cell classify
/// and per-point distance loops (a handful of compares or flops each);
/// marching cubes cuts its z-slabs so a chunk holds at least this many.
pub(crate) const CELL_MIN_LEN: usize = 4096;
/// Fewest rays worth a chunk of image rows.
pub(crate) const RAY_MIN_LEN: usize = 256;
/// Fewest particle traces worth a chunk.
pub(crate) const SEED_MIN_LEN: usize = 8;

pub use advection::{FlowMode, FlowScenario, ParticleAdvection, Seeding, StepControl, Termination};
pub use clip::SphericalClip;
pub use contour::Contour;
pub use dpp::{Backend, PrimitiveOp, PrimitiveReport};
pub use filter::{Algorithm, Filter, FilterOutput, KernelClass, KernelReport};
pub use fingerprint::{dataset_fingerprint, fingerprint48, series_fingerprint, Fnv1a};
pub use gradient::Gradient;
pub use isovolume::Isovolume;
pub use raytrace::{RayRecord, RayTracer};
pub use slice::ThreeSlice;
pub use spec::{AlgorithmSpec, IsoValues, ScalarBand, SphereSpec};
pub use threshold::Threshold;
pub use volren::VolumeRenderer;
