//! # service — the study service at scale
//!
//! Everything below `crates/service` turns the one-shot study pipeline
//! (`vizpower::study`) into a long-lived, concurrency-safe service: it
//! accepts thousands of requests, dedupes identical work through a
//! fingerprint-addressed cache, and schedules what remains across a
//! simulated fleet without ever exceeding a power budget.
//!
//! * `key` — the [`CacheKey`]: `(spec fingerprint, dataset
//!   fingerprint, admitted cap, backend)`, the four axes along which
//!   two requests are the same work.
//! * `cache` — the dispatch [`Outcome`] and [`ResultCache`], the
//!   [`CacheKey`]-addressed alias of `vizpower::store::Memo` — the
//!   workspace's one single-flight map (one compute per key no matter
//!   how many threads ask at once).
//! * `admission` — [`Admission`], the service's budget gate: every
//!   admitted cap fits its node's share of the fleet budget and the
//!   hardware range.
//! * `engine` — [`Engine`], the two-level compute path: cap-independent
//!   native filter runs in the engine's own native store (`vizpower::store`,
//!   the study's store too) feeding the cap-dependent power model.
//! * `service` — [`StudyService`], the batched dispatcher/scheduler
//!   and its determinism argument: the dispatch thread owns the result
//!   map, `vizmesh::par` workers compute and return, and responses,
//!   report, and journal are byte-identical across worker counts.
//! * [`traffic`] — seeded Zipfian synthetic traffic for the
//!   `reproduce serve` driver.
//!
//! The architecture and the cache-key derivation (including why keys
//! carry the *admitted* cap, not the requested one) are documented in
//! `docs/SERVICE.md`; its journal records are in
//! `docs/OBSERVABILITY.md`.

mod admission;
mod cache;
mod engine;
mod key;
mod service;
pub mod traffic;

pub use admission::Admission;
pub use cache::{Outcome, ResultCache};
pub use engine::{Engine, JobResult, Rendering, Request, ServiceError};
pub use key::CacheKey;
pub use service::{Response, ServeOutcome, ServeReport, ServiceConfig, StudyService, WindowLoad};
pub use traffic::{universe, zipf_traffic, TrafficConfig, XorShift};
