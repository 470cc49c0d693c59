//! The algorithm registry: one table, one row per algorithm, from which
//! every other description of the eight algorithms derives.
//!
//! [`Algorithm::name`], [`Algorithm::parse`], [`Algorithm::ALL`] and the
//! spec's wire tag are all views of [`REGISTRY`]
//! ([`Algorithm::CELL_CENTERED`] is a literal a unit test holds to the
//! flags); adding a ninth algorithm means adding one enum variant, one
//! registry row, and the spec arms (docs/REGISTRY.md walks through
//! it). The row order is pinned to the enum discriminant order by a
//! compile-time assertion so `REGISTRY[alg as usize]` is always the
//! right row.

use crate::filter::{Algorithm, KernelClass};

/// One registry row: everything the workspace knows about an algorithm
/// besides its parameterization (which lives in
/// [`AlgorithmSpec`](crate::spec::AlgorithmSpec)).
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The enum id this row describes.
    pub algorithm: Algorithm,
    /// Display name ("Spherical Clip", "Volume Rendering", ...).
    pub name: &'static str,
    /// The snake_case tag of the algorithm's spec on the wire: the
    /// `"algorithm"` member of its JSON form and the head of its
    /// canonical fingerprint string (see [`crate::spec`]).
    pub wire: &'static str,
    /// Normalized CLI aliases accepted by [`Algorithm::parse`] (ascii
    /// alphanumerics, lowercase — the normal form `parse` reduces its
    /// input to). The first alias is the canonical snake-less name.
    pub aliases: &'static [&'static str],
    /// Kernel taxonomy: the [`KernelClass`]es this algorithm's filter
    /// emits, in execution order (§VI of the paper).
    pub classes: &'static [KernelClass],
    /// Whether the algorithm iterates over every input cell and so is
    /// comparable by the paper's cells/sec rate (Fig. 3).
    pub cell_centered: bool,
}

/// The eight algorithms, in enum-discriminant (= paper Fig. 1) order.
pub const REGISTRY: [RegistryEntry; 8] = [
    RegistryEntry {
        algorithm: Algorithm::Contour,
        name: "Contour",
        wire: "contour",
        aliases: &["contour", "isosurface", "marchingcubes"],
        classes: &[KernelClass::CaseTable, KernelClass::Interpolate],
        cell_centered: true,
    },
    RegistryEntry {
        algorithm: Algorithm::Threshold,
        name: "Threshold",
        wire: "threshold",
        aliases: &["threshold"],
        classes: &[KernelClass::CellClassify, KernelClass::GatherScatter],
        cell_centered: true,
    },
    RegistryEntry {
        algorithm: Algorithm::SphericalClip,
        name: "Spherical Clip",
        wire: "spherical_clip",
        aliases: &["sphericalclip", "clip"],
        classes: &[
            KernelClass::SignedDistance,
            KernelClass::TetClip,
            KernelClass::GatherScatter,
        ],
        cell_centered: true,
    },
    RegistryEntry {
        algorithm: Algorithm::Isovolume,
        name: "Isovolume",
        wire: "isovolume",
        aliases: &["isovolume"],
        classes: &[
            KernelClass::CellClassify,
            KernelClass::TetClip,
            KernelClass::GatherScatter,
        ],
        cell_centered: true,
    },
    RegistryEntry {
        algorithm: Algorithm::Slice,
        name: "Slice",
        wire: "slice",
        aliases: &["slice", "threeslice", "3slice"],
        classes: &[
            KernelClass::SignedDistance,
            KernelClass::CaseTable,
            KernelClass::Interpolate,
        ],
        cell_centered: true,
    },
    RegistryEntry {
        algorithm: Algorithm::ParticleAdvection,
        name: "Particle Advection",
        wire: "particle_advection",
        aliases: &["particleadvection", "advection", "streamlines"],
        classes: &[KernelClass::Rk4Advect],
        cell_centered: false,
    },
    RegistryEntry {
        algorithm: Algorithm::RayTracing,
        name: "Ray Tracing",
        wire: "ray_tracing",
        aliases: &["raytracing", "raytrace"],
        classes: &[
            KernelClass::BvhBuild,
            KernelClass::RayTraverse,
            KernelClass::GatherScatter,
        ],
        cell_centered: false,
    },
    RegistryEntry {
        algorithm: Algorithm::VolumeRendering,
        name: "Volume Rendering",
        wire: "volume_rendering",
        aliases: &["volumerendering", "volren"],
        classes: &[KernelClass::RayMarch],
        cell_centered: false,
    },
];

// Row order == enum discriminant order, checked at compile time so
// `REGISTRY[alg as usize]` indexing can never pick the wrong row.
const _: () = {
    let mut i = 0;
    while i < REGISTRY.len() {
        assert!(
            REGISTRY[i].algorithm as usize == i,
            "REGISTRY rows must follow Algorithm discriminant order"
        );
        i += 1;
    }
};

/// All eight algorithms, derived from [`REGISTRY`] row order.
pub const ALL: [Algorithm; 8] = {
    let mut all = [Algorithm::Contour; 8];
    let mut i = 0;
    while i < REGISTRY.len() {
        all[i] = REGISTRY[i].algorithm;
        i += 1;
    }
    all
};

/// The cell-centered algorithms, alphabetical by display name (the
/// Fig. 3 presentation order); a unit test holds it to the registry
/// flags and the name order.
pub const CELL_CENTERED: [Algorithm; 5] = [
    Algorithm::Contour,
    Algorithm::Isovolume,
    Algorithm::Slice,
    Algorithm::SphericalClip,
    Algorithm::Threshold,
];

/// The registry row for an algorithm.
pub const fn entry(algorithm: Algorithm) -> &'static RegistryEntry {
    &REGISTRY[algorithm as usize]
}

/// Parse a CLI-style name: case/space/underscore insensitive, matched
/// against the registry alias tables.
pub fn parse(s: &str) -> Option<Algorithm> {
    let norm: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    REGISTRY
        .iter()
        .find(|e| e.aliases.contains(&norm.as_str()))
        .map(|e| e.algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_indexing_matches_rows() {
        for (i, row) in REGISTRY.iter().enumerate() {
            assert_eq!(entry(row.algorithm).name, row.name);
            assert_eq!(row.algorithm as usize, i);
        }
    }

    #[test]
    fn names_and_aliases_are_unique_and_normalized() {
        let mut names = std::collections::HashSet::new();
        let mut aliases = std::collections::HashSet::new();
        for row in &REGISTRY {
            assert!(names.insert(row.name), "duplicate name {}", row.name);
            assert!(!row.aliases.is_empty(), "{} has no aliases", row.name);
            for a in row.aliases {
                assert!(aliases.insert(*a), "alias {a} claimed twice");
                assert!(
                    a.chars()
                        .all(|c| c.is_ascii_alphanumeric() && !c.is_ascii_uppercase()),
                    "alias {a} is not in parse normal form"
                );
            }
        }
    }

    #[test]
    fn every_row_has_kernel_classes() {
        for row in &REGISTRY {
            assert!(!row.classes.is_empty(), "{} has no classes", row.name);
        }
    }

    #[test]
    fn cell_centered_table_is_alphabetical_and_flag_consistent() {
        let names: Vec<&str> = CELL_CENTERED.iter().map(|a| entry(*a).name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "CELL_CENTERED must be name-sorted");
        for row in &REGISTRY {
            assert_eq!(
                CELL_CENTERED.contains(&row.algorithm),
                row.cell_centered,
                "{} flag drifted",
                row.name
            );
        }
    }

    #[test]
    fn parse_covers_every_alias_and_only_aliases() {
        for row in &REGISTRY {
            for a in row.aliases {
                assert_eq!(parse(a), Some(row.algorithm), "alias {a}");
            }
            assert_eq!(parse(row.name), Some(row.algorithm), "name {}", row.name);
        }
        assert_eq!(parse("bogus"), None);
        assert_eq!(parse(""), None);
    }
}
