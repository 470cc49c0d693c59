//! The service's cache vocabulary: how a request resolved at dispatch
//! ([`Outcome`]) and the [`CacheKey`]-addressed spelling of the
//! workspace's one single-flight memo ([`vizpower::store::Memo`]).

use vizpower::store::Memo;

use crate::key::CacheKey;

/// How a request resolved against the result map, decided at dispatch
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The key was already resident (computed by an earlier batch).
    Hit,
    /// First sight of the key: this request pays for the compute.
    Miss,
    /// The key was scheduled earlier in the same batch; this request
    /// rides along without scheduling new work.
    Coalesced,
}

impl Outcome {
    /// Journal spelling of the outcome.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Coalesced => "coalesced",
        }
    }
}

/// A single-flight memo addressed by [`CacheKey`].
pub type ResultCache<V> = Memo<CacheKey, V>;
