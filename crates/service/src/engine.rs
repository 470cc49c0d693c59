//! The execution engine behind the service: request/response types, the
//! service error, and the two-level compute path (native filter run,
//! then cap-dependent power model).
//!
//! A cached study result factors into two stages with different key
//! spaces:
//!
//! * the **native run** — `spec.build_with(backend).execute(dataset)` —
//!   depends on `(spec, backend, dataset)` but *not* the cap, so it is
//!   memoized once per backend-qualified spec fingerprint in a
//!   single-flight [`Memo`] and shared by every cap the fleet serves it
//!   under (direct callers of [`Engine::native`] on two threads meet there);
//! * the **capped execution** — `characterize` + `Package::run_capped`
//!   via [`vizpower::study::sweep`] — depends on all four key
//!   components and is what the dispatch thread's result map stores.
//!
//! The native entry keeps a [`Rendering`] of the full
//! [`FilterOutput`](vizalgo::FilterOutput) (geometry, images, kernels,
//! primitives): the byte count and FNV-1a digest of its `Debug` text,
//! hashed as it is written, so the text itself is never stored. That
//! digest is the differential-parity oracle: the root `service_parity`
//! suite compares it against the digest of a cold direct run of the
//! same spec. Every cap's [`JobResult`] carries a 16-byte copy of it.

use std::fmt;
use std::sync::Arc;

use powersim::{CpuSpec, ExecResult, Watts};
use vizalgo::{Algorithm, AlgorithmSpec, Backend, Fnv1a};
use vizpower::store::Memo;
use vizpower::study::sweep;
use vizpower::{AlgorithmRun, DatasetStore};

use crate::key::CacheKey;

/// One unit of incoming traffic: run `spec` on the `size`³ study
/// dataset under a requested power cap, on a backend.
#[derive(Debug, Clone)]
pub struct Request {
    /// The algorithm plan to execute.
    pub spec: AlgorithmSpec,
    /// Study dataset size (cells per axis).
    pub size: usize,
    /// Requested power cap — admission may clamp it before keying.
    pub cap: Watts,
    /// Execution backend.
    pub backend: Backend,
}

/// The byte count and 48-bit FNV-1a digest of a value's `Debug`
/// rendering, taken as the text is written: `format!("{value:?}")`'s
/// length and fingerprint without the `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rendering {
    len: usize,
    /// [`Fnv1a::finish48`] over the rendering's bytes.
    pub fp: u64,
}

impl Rendering {
    /// Stream `{value:?}` into a sink that counts and hashes each piece.
    pub fn of(value: &impl fmt::Debug) -> Rendering {
        struct Sink(usize, Fnv1a);
        impl fmt::Write for Sink {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                self.1.update(s.as_bytes());
                Ok(())
            }
        }
        let mut sink = Sink(0, Fnv1a::new());
        fmt::write(&mut sink, format_args!("{value:?}"))
            .expect("the sink never fails, so only a faulty Debug impl could");
        Rendering {
            len: sink.0,
            fp: sink.1.finish48(),
        }
    }

    /// Bytes in the rendering.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the rendering is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The cached product of one unit of work: the native output's
/// rendering digest (the parity oracle) plus the power-model execution
/// at the key's cap.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The executed algorithm.
    pub(crate) algorithm: Algorithm,
    /// The digest of the native [`vizalgo::FilterOutput`]'s `Debug`
    /// text, compared against cold direct runs by the parity suite; a
    /// copy of the native run's.
    pub output_debug: Rendering,
    /// The capped power-model execution (time, energy, counters).
    pub exec: ExecResult,
}

/// Everything that can go wrong on the service path. `Clone` so one
/// failure can be reported to every requester that coalesced onto it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The requested backend cannot express the requested algorithm.
    UnsupportedBackend {
        /// The backend asked for.
        backend: Backend,
        /// The algorithm it cannot run.
        algorithm: Algorithm,
    },
    /// The fleet budget shared across nodes leaves some node below the
    /// hardware minimum cap — no request could legally be admitted.
    BudgetBelowFloor {
        /// The per-node share of the fleet budget.
        node_budget: Watts,
        /// The hardware floor it fails to clear.
        floor: Watts,
        /// How many ways the fleet budget was split.
        nodes: usize,
    },
    /// A service configuration knob was zero that must not be.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnsupportedBackend { backend, algorithm } => write!(
                f,
                "the {backend:?} backend does not support {algorithm:?}; \
                 route this request to the traditional backend"
            ),
            ServiceError::BudgetBelowFloor {
                node_budget,
                floor,
                nodes,
            } => write!(
                f,
                "fleet budget splits to {node_budget:?} per node across {nodes} nodes, \
                 below the {floor:?} hardware floor: no cap could be admitted; \
                 raise the budget or shrink the fleet"
            ),
            ServiceError::InvalidConfig(what) => {
                write!(f, "invalid service configuration: {what}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A cached native filter run: the parity-oracle digest plus the
/// [`AlgorithmRun`] (spec, kernel reports, input size) that every cap
/// of this spec is swept from without re-assembly.
#[derive(Debug)]
pub struct NativeRun {
    /// Digest of the full `FilterOutput`'s `Debug` rendering.
    pub(crate) output_debug: Rendering,
    /// The run `characterize` + the power model consume.
    pub(crate) run: AlgorithmRun,
}

/// The compute core: dataset store, processor model, and the
/// cap-independent native-run memo that a serve call's native wave fills.
#[derive(Debug)]
pub struct Engine {
    store: Arc<DatasetStore>,
    cpu: CpuSpec,
    /// Keyed by `(spec.fingerprint_with(backend), data_fp)`.
    natives: Memo<(u64, u64), NativeRun>,
}

impl Engine {
    /// An engine over `store`, modeling `cpu`, with `shards` native
    /// memo shards.
    pub fn new(store: Arc<DatasetStore>, cpu: CpuSpec, shards: usize) -> Engine {
        Engine {
            store,
            cpu,
            natives: Memo::new(shards),
        }
    }

    /// 48-bit fingerprint of the `size`³ study dataset.
    pub fn data_fp(&self, size: usize) -> u64 {
        self.store.fingerprint(size)
    }

    /// Reject requests the backend cannot serve. `serve` runs it over
    /// every request before the first batch, so invalid traffic fails
    /// before any scheduling happens.
    pub(crate) fn validate(&self, req: &Request) -> Result<(), ServiceError> {
        let algorithm = req.spec.algorithm();
        if !req.backend.supports(algorithm) {
            return Err(ServiceError::UnsupportedBackend {
                backend: req.backend,
                algorithm,
            });
        }
        Ok(())
    }

    /// The native run for a request, built at most once per
    /// `(backend-qualified spec fingerprint, dataset)` across all caps
    /// and all threads: two callers holding the same spec at different
    /// caps meet here, and one of them computes.
    pub fn native(&self, req: &Request, data_fp: u64) -> Arc<NativeRun> {
        let key = (req.spec.fingerprint_with(req.backend), data_fp);
        self.natives.get_or_compute(key, || {
            let ds = self.store.dataset(req.size);
            let (run, output_debug) =
                AlgorithmRun::native(req.spec.clone(), req.backend, req.size, &ds, Rendering::of);
            NativeRun { output_debug, run }
        })
    }

    /// Whether the native run for a request is already computed.
    pub(crate) fn holds_native(&self, req: &Request, data_fp: u64) -> bool {
        self.natives
            .contains(&(req.spec.fingerprint_with(req.backend), data_fp))
    }

    /// Execute one validated, admitted unit of work: native run (cached
    /// across caps), then the power model at exactly the key's cap.
    pub fn execute(&self, req: &Request, key: CacheKey) -> JobResult {
        let native = self.native(req, key.data_fp);
        let sw = sweep(&native.run, &[key.cap()], &self.cpu);
        let exec = sw
            .rows
            .first()
            .expect("single-cap sweep has exactly one row")
            .clone();
        JobResult {
            algorithm: native.run.algorithm,
            output_debug: native.output_debug,
            exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::CpuSpec;

    fn engine() -> Engine {
        Engine::new(
            Arc::new(DatasetStore::new()),
            CpuSpec::broadwell_e5_2695v4(),
            4,
        )
    }

    fn request(cap: f64, backend: Backend) -> Request {
        Request {
            spec: Algorithm::Slice.default_spec(),
            size: 6,
            cap: Watts(cap),
            backend,
        }
    }

    #[test]
    fn validate_rejects_dpp_only_where_unsupported() {
        let e = engine();
        let bad = Request {
            spec: Algorithm::RayTracing.default_spec(),
            ..request(80.0, Backend::Dpp)
        };
        match e.validate(&bad) {
            Err(ServiceError::UnsupportedBackend { backend, algorithm }) => {
                assert_eq!(backend, Backend::Dpp);
                assert_eq!(algorithm, Algorithm::RayTracing);
            }
            other => panic!("expected UnsupportedBackend, got {other:?}"),
        }
        e.validate(&request(80.0, Backend::Dpp))
            .expect("slice has a DPP formulation");
    }

    #[test]
    fn native_runs_are_shared_across_caps_but_not_backends() {
        let e = engine();
        let data_fp = e.data_fp(6);
        let lo = request(60.0, Backend::Traditional);
        let hi = request(120.0, Backend::Traditional);
        let a = e.native(&lo, data_fp);
        let b = e.native(&hi, data_fp);
        assert!(Arc::ptr_eq(&a, &b), "cap does not key the native run");
        let dpp = e.native(&request(60.0, Backend::Dpp), data_fp);
        assert!(!Arc::ptr_eq(&a, &dpp), "backend does key the native run");
    }

    #[test]
    fn every_cap_of_a_native_run_shares_its_one_rendering() {
        let e = engine();
        let data_fp = e.data_fp(6);
        let execute = |cap, backend| {
            let req = request(cap, backend);
            let key = CacheKey::new(&req.spec, data_fp, req.cap, req.backend);
            e.execute(&req, key)
        };
        let lo = execute(60.0, Backend::Traditional);
        let hi = execute(120.0, Backend::Traditional);
        assert_eq!(
            lo.output_debug, hi.output_debug,
            "two caps of one native run carry one rendering"
        );
        let dpp = execute(60.0, Backend::Dpp);
        assert_ne!(
            lo.output_debug.fp, dpp.output_debug.fp,
            "the other backend is another native run"
        );
    }

    #[test]
    fn the_rendering_digest_is_that_of_the_formatted_text() {
        let e = engine();
        let data_fp = e.data_fp(6);
        let ds = e.store.dataset(6);
        let study = vizpower::study::StudyConfig::quick();
        for algorithm in Algorithm::ALL {
            for backend in Backend::ALL {
                if !backend.supports(algorithm) {
                    continue;
                }
                let spec = study.spec(algorithm);
                let out = spec.build_with(backend, &ds).execute(&ds);
                let text = format!("{out:?}");
                let mut h = Fnv1a::new();
                h.update(text.as_bytes());
                let rendering = Rendering::of(&out);
                assert_eq!(rendering.len(), text.len(), "{algorithm:?}/{backend:?}");
                assert_eq!(rendering.fp, h.finish48(), "{algorithm:?}/{backend:?}");
                let req = Request {
                    spec,
                    size: 6,
                    cap: Watts(80.0),
                    backend,
                };
                assert_eq!(e.native(&req, data_fp).output_debug, rendering);
            }
        }
    }

    #[test]
    fn execute_runs_the_power_model_at_exactly_the_key_cap() {
        let e = engine();
        let req = request(60.0, Backend::Traditional);
        let key = CacheKey::new(&req.spec, e.data_fp(6), req.cap, req.backend);
        let job = e.execute(&req, key);
        assert_eq!(job.exec.cap_watts, Watts(60.0));
        assert!(job.exec.seconds > 0.0);
        assert!(!job.output_debug.is_empty());
        assert_eq!(job.algorithm, Algorithm::Slice);
    }
}
