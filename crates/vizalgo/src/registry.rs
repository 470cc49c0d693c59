//! The algorithm registry: one table, one row per algorithm, from which
//! every other description of the eight algorithms derives.
//!
//! [`Algorithm::name`], [`Algorithm::parse`], [`Algorithm::ALL`] and the
//! spec's wire tag are all views of [`REGISTRY`]
//! ([`Algorithm::CELL_CENTERED`] is a literal a unit test holds to
//! name order); adding a ninth algorithm means adding one enum variant, one
//! registry row, and the spec arms (docs/REGISTRY.md walks through
//! it). The row order is pinned to the enum discriminant order by a
//! compile-time assertion so `REGISTRY[alg as usize]` is always the
//! right row.

use crate::filter::Algorithm;

/// One registry row: everything the workspace knows about an algorithm
/// besides its parameterization (which lives in
/// [`AlgorithmSpec`](crate::spec::AlgorithmSpec)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegistryEntry {
    /// The enum id this row describes.
    pub(crate) algorithm: Algorithm,
    /// Display name ("Spherical Clip", "Volume Rendering", ...).
    pub(crate) name: &'static str,
    /// The snake_case tag of the algorithm's spec on the wire: the
    /// `"algorithm"` member of its JSON form and the head of its
    /// canonical fingerprint string (see [`crate::spec`]).
    pub(crate) wire: &'static str,
    /// Normalized CLI aliases accepted by [`Algorithm::parse`] (ascii
    /// alphanumerics, lowercase — the normal form `parse` reduces its
    /// input to). The first alias is the canonical snake-less name.
    pub(crate) aliases: &'static [&'static str],
}

/// The eight algorithms, in enum-discriminant (= paper Fig. 1) order.
pub(crate) const REGISTRY: [RegistryEntry; 8] = [
    RegistryEntry {
        algorithm: Algorithm::Contour,
        name: "Contour",
        wire: "contour",
        aliases: &["contour", "isosurface", "marchingcubes"],
    },
    RegistryEntry {
        algorithm: Algorithm::Threshold,
        name: "Threshold",
        wire: "threshold",
        aliases: &["threshold"],
    },
    RegistryEntry {
        algorithm: Algorithm::SphericalClip,
        name: "Spherical Clip",
        wire: "spherical_clip",
        aliases: &["sphericalclip", "clip"],
    },
    RegistryEntry {
        algorithm: Algorithm::Isovolume,
        name: "Isovolume",
        wire: "isovolume",
        aliases: &["isovolume"],
    },
    RegistryEntry {
        algorithm: Algorithm::Slice,
        name: "Slice",
        wire: "slice",
        aliases: &["slice", "threeslice", "3slice"],
    },
    RegistryEntry {
        algorithm: Algorithm::ParticleAdvection,
        name: "Particle Advection",
        wire: "particle_advection",
        aliases: &["particleadvection", "advection", "streamlines"],
    },
    RegistryEntry {
        algorithm: Algorithm::RayTracing,
        name: "Ray Tracing",
        wire: "ray_tracing",
        aliases: &["raytracing", "raytrace"],
    },
    RegistryEntry {
        algorithm: Algorithm::VolumeRendering,
        name: "Volume Rendering",
        wire: "volume_rendering",
        aliases: &["volumerendering", "volren"],
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
pub(crate) const ALL: [Algorithm; 8] = {
    let mut all = [Algorithm::Contour; 8];
    let mut i = 0;
    while i < REGISTRY.len() {
        all[i] = REGISTRY[i].algorithm;
        i += 1;
    }
    all
};

/// The cell-centered algorithms — those that iterate over every input
/// cell and so compare by the paper's cells/sec rate — alphabetical by
/// display name (the Fig. 3 presentation order, which a unit test
/// holds).
pub(crate) const CELL_CENTERED: [Algorithm; 5] = [
    Algorithm::Contour,
    Algorithm::Isovolume,
    Algorithm::Slice,
    Algorithm::SphericalClip,
    Algorithm::Threshold,
];

/// The registry row for an algorithm.
pub(crate) const fn entry(algorithm: Algorithm) -> &'static RegistryEntry {
    &REGISTRY[algorithm as usize]
}

/// Parse a CLI-style name: case/space/underscore insensitive, matched
/// against the registry alias tables.
pub(crate) fn parse(s: &str) -> Option<Algorithm> {
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
    fn cell_centered_table_is_alphabetical() {
        let names: Vec<&str> = CELL_CENTERED.iter().map(|a| entry(*a).name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "CELL_CENTERED must be name-sorted");
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
