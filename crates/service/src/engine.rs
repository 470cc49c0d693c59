//! The execution engine behind the service: request/response types, the
//! service error, and the two-level compute path (native filter run,
//! then cap-dependent power model).
//!
//! A cached study result factors into two stages with different key
//! spaces:
//!
//! * the **native run** — `spec.build_with(backend).execute(dataset)` —
//!   depends on `(spec, backend, dataset)` but *not* the cap, so the
//!   engine's own native store (the study's `NativeStore` layout) holds it
//!   once for every cap (callers of [`Engine::native`] on two threads meet there);
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

use powersim::{CpuSpec, ExecResult, Journal, Watts};
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

/// The compute core: dataset store, processor model, and its own
/// cap-independent native store, which a serve call's native wave fills.
#[derive(Debug)]
pub struct Engine {
    store: Arc<DatasetStore>,
    cpu: CpuSpec,
    /// `(spec.fingerprint_with(backend), size)` → run, output [`Rendering`].
    natives: Memo<(u64, usize), (Arc<AlgorithmRun>, Rendering)>,
}

impl Engine {
    /// An engine over `store`, modeling `cpu`, with `shards` native
    /// store shards.
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

    /// The native run for a request and its output's rendering, built
    /// once for all caps and threads. Size names the dataset within one
    /// engine, so `_data_fp` is not read.
    pub fn native(&self, req: &Request, _data_fp: u64) -> Arc<(Arc<AlgorithmRun>, Rendering)> {
        let (want, off) = ((&req.spec, req.backend, req.size), &mut Journal::off());
        self.natives.get(&self.store, want, off, Rendering::of)
    }

    /// The natives of `reqs` the engine lacks, as one [`Memo::wave`] with `native`'s inspect.
    pub(crate) fn wave<'a>(&self, reqs: impl Iterator<Item = &'a Request>, n: usize) -> usize {
        let wants = reqs.map(|r| (&r.spec, r.backend, r.size));
        self.natives.wave(&self.store, wants, n, Rendering::of)
    }

    /// Execute one validated, admitted unit of work: native run (cached
    /// across caps), then the power model at exactly the key's cap.
    pub fn execute(&self, req: &Request, key: CacheKey) -> JobResult {
        let (run, output_debug) = &*self.native(req, key.data_fp);
        let sw = sweep(run, &[key.cap()], &self.cpu);
        let exec = sw
            .rows
            .first()
            .expect("single-cap sweep has exactly one row")
            .clone();
        JobResult {
            algorithm: run.algorithm,
            output_debug: *output_debug,
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
                assert_eq!(e.native(&req, data_fp).1, rendering);
            }
        }
    }

    /// The engine and the study build each native the one way: every
    /// supported pair at 6³ gives `Debug`-identical runs.
    #[test]
    fn the_engine_and_the_study_build_one_native_run() {
        use vizpower::study::{StudyConfig, StudyContext};
        let e = engine();
        let data_fp = e.data_fp(6);
        let config = StudyConfig::quick();
        for backend in Backend::ALL {
            let mut ctx = StudyContext::with_backend(config.clone(), backend);
            for algorithm in Algorithm::ALL {
                if !backend.supports(algorithm) {
                    continue;
                }
                let req = Request {
                    spec: config.spec(algorithm),
                    size: 6,
                    cap: Watts(80.0),
                    backend,
                };
                assert_eq!(
                    format!("{:?}", e.native(&req, data_fp).0),
                    format!("{:?}", ctx.run(algorithm, 6)),
                    "{algorithm:?}/{backend:?}"
                );
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
