//! The study service proper: batched dispatch, deterministic node
//! placement, budget-bounded wave scheduling, and journaling.
//!
//! # Determinism argument
//!
//! Everything a caller can observe — responses, report, journal — is a
//! pure function of `(config, requests)` regardless of worker count or
//! thread interleaving, because every observable quantity is fixed at
//! **dispatch time**, before any worker runs:
//!
//! 1. Requests are classified in request order against the results
//!    resident from *earlier batches* (hit), the keys scheduled *earlier
//!    in the same batch* (coalesced), or neither (miss → new job).
//! 2. Jobs are placed by the seeded [`CacheKey::placement`] hash and
//!    packed into per-node waves greedily in job order; each wave's
//!    admitted power is bounded by the node's budget share.
//! 3. Completion times come from the *modeled* clock: a node runs its
//!    waves sequentially, a wave takes the max modeled duration of its
//!    jobs, and modeled durations come from the deterministic power
//!    model.
//!
//! Workers (`vizmesh::par` workers, at most `workers` of them) compute
//! one wave of native runs per call, before its first batch; a native is
//! a function of `(spec, backend, dataset)` alone. They touch neither the
//! result map, the journal, the report nor the clock — the dispatch thread
//! owns all four and executes each batch's jobs. More workers buy real
//! wall-clock, but the modeled outputs are byte-identical (`service_golden`).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use powersim::{CpuSpec, Journal, Kind, Scope, Watts};
use vizpower::{DatasetStore, StudyConfig};

use crate::admission::Admission;
use crate::cache::Outcome;
use crate::engine::{Engine, JobResult, Request, ServiceError};
use crate::key::CacheKey;

/// Tolerance when packing admitted caps against a node budget. Keyed
/// caps truncate toward zero so they never quantize above the admitted
/// value; this only absorbs float-summation noise when a wave fills.
const CAP_EPS: f64 = 1e-6;

/// Everything that parameterizes a [`StudyService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated nodes the fleet schedules across.
    pub nodes: usize,
    /// Threads computing a serve call's native wave (wall-clock only).
    pub workers: usize,
    /// Requests per dispatch batch.
    pub batch: usize,
    /// Fleet-wide power budget, split evenly across nodes.
    pub fleet_budget: Watts,
    /// Seed for the deterministic placement hash.
    pub seed: u64,
    /// Shards of the engine's native store (and the journal's `shard` field).
    pub shards: usize,
    /// Result-cache slot capacity. `Some(n)`: at each batch end the
    /// service evicts its oldest-scheduled resident entries until at
    /// most `n` remain, journaling one `cache_event` with outcome
    /// `evict` per dropped key. `None` (the default) keeps every
    /// result resident, the pre-capacity behavior. It bounds entries,
    /// not memory: the engine's native store keeps every run that
    /// results are swept from.
    pub cache_slots: Option<usize>,
    /// Study parameterization the traffic universe draws its specs
    /// from ([`StudyConfig::spec`]).
    pub study: StudyConfig,
    /// Processor model executed against.
    pub cpu: CpuSpec,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            nodes: 4,
            workers: 4,
            batch: 64,
            fleet_budget: Watts(360.0),
            seed: 0x5eed_0009,
            shards: 16,
            cache_slots: None,
            study: StudyConfig::quick(),
            cpu: CpuSpec::broadwell_e5_2695v4(),
        }
    }
}

/// One scheduled execution wave: the admitted power concurrently drawn
/// on one node during one scheduling window. The service's core budget
/// invariant — checked by the property suite — is that `admitted` never
/// exceeds the node's share of the fleet budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowLoad {
    /// Node the wave ran on.
    pub(crate) node: u32,
    /// Wave ordinal on that node (monotonic across batches).
    pub(crate) wave: u32,
    /// Sum of admitted caps of the wave's jobs.
    pub admitted: Watts,
    /// Jobs that ran concurrently in the wave.
    pub jobs: u32,
}

/// Aggregate outcome of one [`StudyService::serve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests served.
    pub requests: usize,
    /// Requests answered from resident cache entries.
    pub hits: usize,
    /// Requests that scheduled a new job.
    pub misses: usize,
    /// Requests that rode along on a job scheduled earlier in their
    /// own batch.
    pub coalesced: usize,
    /// Resident entries dropped by capacity eviction (0 unless
    /// [`ServiceConfig::cache_slots`] is set).
    pub evictions: usize,
    /// Dispatch batches the traffic was split into.
    pub batches: usize,
    /// Simulated nodes.
    pub(crate) nodes: usize,
    /// Per-node share of the fleet budget.
    pub(crate) node_budget: Watts,
    /// The fleet-wide budget.
    pub(crate) fleet_budget: Watts,
    /// Jobs executed per node, indexed by node.
    pub per_node_jobs: Vec<u64>,
    /// Requests (misses + coalesced) backed by each node.
    pub per_node_requests: Vec<u64>,
    /// Every scheduling window, in (batch, node, wave) order.
    pub windows: Vec<WindowLoad>,
    /// Modeled seconds from first dispatch to last completion.
    pub(crate) modeled_seconds: f64,
    /// Modeled latency of each request, in request order.
    pub(crate) latencies: Vec<f64>,
}

impl ServeReport {
    /// Strict hit rate: hits over requests (coalesced requests are
    /// *not* hits — they paid for a compute, just a shared one).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Modeled latency percentile (`p` in 0..=100): the sorted latency
    /// at index `round(p / 100 · (n − 1))`, so p50 of 400 requests is
    /// index 200 (nearest-rank would take 199).
    pub(crate) fn latency_percentile(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// The most heavily loaded scheduling window, if any job ran.
    pub(crate) fn max_window(&self) -> Option<&WindowLoad> {
        self.windows
            .iter()
            .max_by(|a, b| a.admitted.value().total_cmp(&b.admitted.value()))
    }

    /// Modeled request throughput (requests per modeled second).
    pub(crate) fn throughput(&self) -> f64 {
        if self.modeled_seconds > 0.0 {
            self.requests as f64 / self.modeled_seconds
        } else {
            0.0
        }
    }

    /// Deterministic plain-text rendering (pinned by `service_golden`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "study service: {} requests in {} batches over {} nodes \
             (budget {:.0} W fleet, {:.0} W/node)\n",
            self.requests,
            self.batches,
            self.nodes,
            self.fleet_budget.value(),
            self.node_budget.value(),
        ));
        out.push_str(&format!(
            "  outcomes: {} hits ({:.1}%), {} misses, {} coalesced\n",
            self.hits,
            100.0 * self.hit_rate(),
            self.misses,
            self.coalesced,
        ));
        // Only slot-capped services evict; the default render is
        // unchanged (pinned by `service_golden`).
        if self.evictions > 0 {
            out.push_str(&format!(
                "  evictions: {} (slot-capped result cache)\n",
                self.evictions,
            ));
        }
        out.push_str(&format!(
            "  modeled: {:.3} s total, {:.1} req/s, latency p50 {:.3} s \
             p95 {:.3} s p99 {:.3} s\n",
            self.modeled_seconds,
            self.throughput(),
            self.latency_percentile(50.0),
            self.latency_percentile(95.0),
            self.latency_percentile(99.0),
        ));
        match self.max_window() {
            Some(w) => out.push_str(&format!(
                "  peak window: {:.1} W across {} jobs on node {} \
                 (budget {:.0} W)\n",
                w.admitted.value(),
                w.jobs,
                w.node,
                self.node_budget.value(),
            )),
            None => out.push_str("  peak window: none (no jobs executed)\n"),
        }
        out.push_str("  node  jobs  requests\n");
        for node in 0..self.nodes {
            out.push_str(&format!(
                "  {:>4}  {:>4}  {:>8}\n",
                node, self.per_node_jobs[node], self.per_node_requests[node],
            ));
        }
        out
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The (admitted) cache key the request resolved to.
    pub key: CacheKey,
    /// Dispatch classification.
    pub outcome: Outcome,
    /// Node that backed the response (0 for hits).
    pub node: u32,
    /// The result, shared with every other request on the same key.
    pub result: Arc<JobResult>,
}

/// Responses plus the aggregate report for one serve call.
#[derive(Debug)]
pub struct ServeOutcome {
    /// One response per request, in request order.
    pub responses: Vec<Response>,
    /// The aggregate report.
    pub report: ServeReport,
}

/// A unique unit of scheduled work within one batch.
struct Job<'r> {
    key: CacheKey,
    req: &'r Request,
    node: usize,
}

/// What answers a request: a result resident before its batch, or the
/// batch job (by index) that computes it.
enum Work {
    Resident(Arc<JobResult>),
    Job(usize),
}

/// A wave being packed: job indices plus their admitted-cap sum.
struct Wave {
    jobs: Vec<usize>,
    load: Watts,
}

/// The fingerprint-addressed study service. See the module docs for
/// the determinism argument and `docs/SERVICE.md` for the architecture.
#[derive(Debug)]
pub struct StudyService {
    cfg: ServiceConfig,
    engine: Engine,
    admission: Admission,
    waves_started: Vec<u32>,
    /// Every resident result, owned by the dispatch thread.
    results: HashMap<CacheKey, Arc<JobResult>>,
    /// The keys of `results` in first-scheduled order — the eviction
    /// queue when [`ServiceConfig::cache_slots`] bounds the map. Both
    /// are written together, in `serve`'s steps 3 and 6 only.
    resident_order: VecDeque<CacheKey>,
}

impl StudyService {
    /// Validate `cfg` and build the service (empty caches, fresh
    /// dataset store).
    pub fn new(cfg: ServiceConfig) -> Result<StudyService, ServiceError> {
        StudyService::with_store(cfg, Arc::new(DatasetStore::new()))
    }

    /// Like [`StudyService::new`] but sharing an existing dataset store
    /// (so embedding drivers reuse already-built study datasets).
    pub fn with_store(
        cfg: ServiceConfig,
        store: Arc<DatasetStore>,
    ) -> Result<StudyService, ServiceError> {
        if cfg.nodes == 0 {
            return Err(ServiceError::InvalidConfig("nodes must be at least 1"));
        }
        if cfg.workers == 0 {
            return Err(ServiceError::InvalidConfig("workers must be at least 1"));
        }
        if cfg.batch == 0 {
            return Err(ServiceError::InvalidConfig("batch must be at least 1"));
        }
        if cfg.shards == 0 {
            return Err(ServiceError::InvalidConfig("shards must be at least 1"));
        }
        if cfg.cache_slots == Some(0) {
            return Err(ServiceError::InvalidConfig(
                "cache_slots must be at least 1 when set",
            ));
        }
        let admission = Admission::new(cfg.fleet_budget, cfg.nodes, cfg.cpu.clone())?;
        let engine = Engine::new(store, cfg.cpu.clone(), cfg.shards);
        let waves_started = vec![0; cfg.nodes];
        Ok(StudyService {
            cfg,
            engine,
            admission,
            waves_started,
            results: HashMap::new(),
            resident_order: VecDeque::new(),
        })
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The per-node share of the fleet budget.
    pub fn node_budget(&self) -> Watts {
        self.admission.node_budget()
    }

    /// Serve a traffic slice: dispatch in batches, dedupe against the
    /// result map, schedule unique jobs across the fleet, and journal
    /// one `cache_event` per request at dispatch plus one
    /// `service_request` at its modeled completion.
    pub fn serve(
        &mut self,
        requests: &[Request],
        journal: &mut Journal,
    ) -> Result<ServeOutcome, ServiceError> {
        // Reject before anything is scheduled: a later batch's bad
        // request must not leave earlier batches served.
        for req in requests {
            self.engine.validate(req)?;
        }
        let serve_t0 = journal.now();
        let nodes = self.cfg.nodes;
        let budget = self.admission.node_budget();
        let mut responses: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        let mut report = ServeReport {
            requests: requests.len(),
            hits: 0,
            misses: 0,
            coalesced: 0,
            evictions: 0,
            batches: 0,
            nodes,
            node_budget: budget,
            fleet_budget: self.cfg.fleet_budget,
            per_node_jobs: vec![0; nodes],
            per_node_requests: vec![0; nodes],
            windows: Vec::new(),
            modeled_seconds: 0.0,
            latencies: vec![0.0; requests.len()],
        };

        // Key every request once, here: a fresh store solves its datasets
        // in `data_fp`, at the full thread count.
        let mut fps = HashMap::new();
        let keys: Vec<CacheKey> = requests
            .iter()
            .map(|r| {
                let data_fp = *fps
                    .entry(r.size)
                    .or_insert_with(|| self.engine.data_fp(r.size));
                CacheKey::new(&r.spec, data_fp, self.admission.admit(r.cap), r.backend)
            })
            .collect();
        let pending = (requests.iter().zip(&keys)).filter(|(_, k)| !self.results.contains_key(k));
        self.engine.wave(pending.map(|(r, _)| r), self.cfg.workers);

        let size = self.cfg.batch;
        for (bi, (batch, batch_keys)) in requests.chunks(size).zip(keys.chunks(size)).enumerate() {
            let base = bi * size;
            let batch_start = journal.now();
            report.batches += 1;

            // 1. Classify in request order; collect unique jobs.
            let mut jobs: Vec<Job> = Vec::new();
            let mut scheduled: HashMap<CacheKey, usize> = HashMap::new();
            let mut classes: Vec<(CacheKey, Outcome, Work)> = Vec::with_capacity(batch.len());
            for (req, &key) in batch.iter().zip(batch_keys) {
                let (outcome, work) = if let Some(r) = self.results.get(&key) {
                    (Outcome::Hit, Work::Resident(Arc::clone(r)))
                } else if let Some(&j) = scheduled.get(&key) {
                    (Outcome::Coalesced, Work::Job(j))
                } else {
                    let j = jobs.len();
                    scheduled.insert(key, j);
                    jobs.push(Job {
                        key,
                        req,
                        node: key.placement(self.cfg.seed, nodes),
                    });
                    (Outcome::Miss, Work::Job(j))
                };
                classes.push((key, outcome, work));
            }

            // 2. Pack jobs into budget-bounded waves, greedily in job
            //    order, per node.
            let mut waves_of: Vec<Vec<Wave>> = (0..nodes).map(|_| Vec::new()).collect();
            for (j, job) in jobs.iter().enumerate() {
                let cap = job.key.cap();
                let node_waves = &mut waves_of[job.node];
                match node_waves.last_mut() {
                    Some(w) if (w.load + cap).value() <= budget.value() + CAP_EPS => {
                        w.jobs.push(j);
                        w.load += cap;
                    }
                    _ => node_waves.push(Wave {
                        jobs: vec![j],
                        load: cap,
                    }),
                }
            }

            // 3. Execute unique jobs here (their natives are memo hits
            //    by now), then make them resident.
            let results: Vec<Arc<JobResult>> = jobs
                .iter()
                .map(|job| Arc::new(self.engine.execute(job.req, job.key)))
                .collect();
            for (job, result) in jobs.iter().zip(&results) {
                self.results.insert(job.key, Arc::clone(result));
                self.resident_order.push_back(job.key);
            }

            // 4. Modeled time: nodes run their waves sequentially; a
            //    wave lasts as long as its slowest job.
            let mut completion = vec![batch_start; jobs.len()];
            let mut batch_end = batch_start;
            for (node, waves) in waves_of.iter().enumerate() {
                let mut t = batch_start;
                for w in waves {
                    let mut width = 0.0f64;
                    for &j in &w.jobs {
                        completion[j] = t + results[j].exec.seconds;
                        width = width.max(results[j].exec.seconds);
                    }
                    t += width;
                    report.windows.push(WindowLoad {
                        node: node as u32,
                        wave: self.waves_started[node],
                        admitted: w.load,
                        jobs: w.jobs.len() as u32,
                    });
                    self.waves_started[node] += 1;
                }
                batch_end = batch_end.max(t);
            }

            // 5. Journal + respond. Cache events carry the dispatch
            //    time; service requests carry modeled completions.
            for (key, outcome, _) in &classes {
                self.journal_cache_event(journal, batch_start, key, outcome.name());
            }
            journal.advance(batch_end - batch_start);
            let mut batch_hits = 0usize;
            let mut batch_coalesced = 0usize;
            for (i, (key, outcome, work)) in classes.into_iter().enumerate() {
                let (node, completed_at, result) = match work {
                    Work::Resident(result) => {
                        batch_hits += 1;
                        report.hits += 1;
                        (0u32, batch_start, result)
                    }
                    Work::Job(j) => {
                        let node = jobs[j].node;
                        report.per_node_requests[node] += 1;
                        match outcome {
                            Outcome::Miss => report.misses += 1,
                            _ => {
                                batch_coalesced += 1;
                                report.coalesced += 1;
                            }
                        }
                        (node as u32, completion[j], Arc::clone(&results[j]))
                    }
                };
                let latency = completed_at - batch_start;
                journal.push_record(Kind::ServiceRequest, completed_at, || {
                    vec![
                        ("algorithm", result.algorithm.name().into()),
                        ("backend", key.backend.name().into()),
                        ("spec_fp", (key.spec_fp as f64).into()),
                        ("data_fp", (key.data_fp as f64).into()),
                        ("cap_watts", key.cap().into()),
                        ("outcome", outcome.name().into()),
                        ("node", node.into()),
                        ("latency_seconds", latency.into()),
                    ]
                });
                report.latencies[base + i] = latency;
                responses[base + i] = Some(Response {
                    key,
                    outcome,
                    node,
                    result,
                });
            }
            for (node, waves) in waves_of.iter().enumerate() {
                report.per_node_jobs[node] +=
                    waves.iter().map(|w| w.jobs.len() as u64).sum::<u64>();
            }
            journal.push_span(Scope::Service, batch_start, None, || {
                let args = vec![
                    ("requests", batch.len() as f64),
                    ("hits", batch_hits as f64),
                    ("misses", jobs.len() as f64),
                    ("coalesced", batch_coalesced as f64),
                    ("jobs", jobs.len() as f64),
                    ("seconds", batch_end - batch_start),
                ];
                (format!("batch:{bi}"), args)
            });

            // 6. Capacity eviction: with a slot-capped map, drop the
            //    oldest-scheduled residents above the budget.
            if let Some(slots) = self.cfg.cache_slots {
                while self.resident_order.len() > slots {
                    let Some(key) = self.resident_order.pop_front() else {
                        break;
                    };
                    self.results.remove(&key);
                    report.evictions += 1;
                    self.journal_cache_event(journal, journal.now(), &key, "evict");
                }
            }
        }

        report.modeled_seconds = journal.now() - serve_t0;
        journal.push_span(Scope::Service, serve_t0, None, || {
            let args = vec![
                ("requests", requests.len() as f64),
                ("hits", report.hits as f64),
                ("misses", report.misses as f64),
                ("coalesced", report.coalesced as f64),
                ("nodes", nodes as f64),
                ("budget_watts", self.cfg.fleet_budget.value()),
            ];
            (format!("serve:{}", requests.len()), args)
        });
        let responses = responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect();
        Ok(ServeOutcome { responses, report })
    }

    /// Journal one `cache_event`: a lookup `outcome` at dispatch, or an
    /// `evict`.
    fn journal_cache_event(&self, journal: &mut Journal, t: f64, key: &CacheKey, outcome: &str) {
        journal.push_record(Kind::CacheEvent, t, || {
            vec![
                ("spec_fp", (key.spec_fp as f64).into()),
                ("data_fp", (key.data_fp as f64).into()),
                ("cap_watts", key.cap().into()),
                ("backend", key.backend.name().into()),
                ("outcome", outcome.into()),
                ("shard", (key.shard(self.cfg.shards) as u32).into()),
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizalgo::{Algorithm, Backend};

    impl StudyService {
        /// Resident results.
        fn cache_len(&self) -> usize {
            assert_eq!(self.results.len(), self.resident_order.len());
            self.results.len()
        }
    }

    fn tiny_cfg() -> ServiceConfig {
        ServiceConfig {
            nodes: 2,
            workers: 2,
            batch: 4,
            fleet_budget: Watts(180.0),
            shards: 4,
            ..ServiceConfig::default()
        }
    }

    fn req(algorithm: Algorithm, cap: f64) -> Request {
        Request {
            spec: algorithm.default_spec(),
            size: 6,
            cap: Watts(cap),
            backend: Backend::Traditional,
        }
    }

    #[test]
    fn serve_dedupes_and_balances_the_books() {
        let mut svc = StudyService::new(tiny_cfg()).expect("valid config");
        let traffic = vec![
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Slice, 80.0),      // same batch → coalesced
            req(Algorithm::Threshold, 80.0),  // distinct work → miss
            req(Algorithm::Slice, 80.0),      // still batch 1 → coalesced
            req(Algorithm::Slice, 80.0),      // batch 2 → hit
            req(Algorithm::Threshold, 120.0), // distinct cap → miss
        ];
        let out = svc
            .serve(&traffic, &mut Journal::off())
            .expect("traffic serves");
        let r = &out.report;
        assert_eq!(
            (r.hits, r.misses, r.coalesced),
            (1, 3, 2),
            "classification: {r:?}"
        );
        assert_eq!(r.hits + r.misses + r.coalesced, r.requests);
        assert_eq!(r.batches, 2);
        assert_eq!(r.per_node_jobs.iter().sum::<u64>(), 3);
        // Requests 0, 1, 3, 4 share one key; byte-identical results.
        let slice0 = &out.responses[0];
        for i in [1usize, 3, 4] {
            assert_eq!(out.responses[i].key, slice0.key);
            assert!(Arc::ptr_eq(&out.responses[i].result, &slice0.result));
        }
        assert_eq!(out.responses[4].outcome, Outcome::Hit);
        assert_eq!(r.latencies[4], 0.0);
        // The 120 W ask was admitted at the 90 W node budget.
        assert_eq!(out.responses[5].key.cap(), Watts(90.0));
        // Every window respects the node budget.
        for w in &r.windows {
            assert!(w.admitted.value() <= r.node_budget.value() + CAP_EPS);
        }
        assert!(r.modeled_seconds > 0.0);
    }

    #[test]
    fn worker_count_does_not_change_observables() {
        let traffic: Vec<Request> = vec![
            req(Algorithm::Slice, 60.0),
            req(Algorithm::Threshold, 60.0),
            req(Algorithm::Slice, 90.0),
            req(Algorithm::Slice, 60.0),
            req(Algorithm::Contour, 60.0),
        ];
        let serve_with = |workers: usize| {
            let mut svc = StudyService::new(ServiceConfig {
                workers,
                ..tiny_cfg()
            })
            .expect("valid config");
            let mut journal = Journal::with_capacity(1 << 12);
            let out = svc.serve(&traffic, &mut journal).expect("serves");
            (format!("{:?}", out.report), journal.to_jsonl())
        };
        let (report1, journal1) = serve_with(1);
        let (report8, journal8) = serve_with(8);
        assert_eq!(report1, report8, "report is worker-count-invariant");
        assert_eq!(journal1, journal8, "journal is worker-count-invariant");
        assert!(journal1.contains("\"ev\":\"cache_event\""));
        assert!(journal1.contains("\"ev\":\"service_request\""));
        assert!(journal1.contains("batch:0"));
        assert!(journal1.contains("serve:5"));
    }

    /// Serve one 80 W Slice request on a fresh service and return its
    /// response and modeled latency with the journal lines.
    fn serve_one() -> (Response, f64, Vec<String>) {
        let mut svc = StudyService::new(tiny_cfg()).expect("valid config");
        let mut journal = Journal::with_capacity(16);
        let out = (svc.serve(&[req(Algorithm::Slice, 80.0)], &mut journal)).expect("serves");
        let lines = journal.to_jsonl().lines().map(str::to_string).collect();
        let latency = out.report.latencies[0];
        (
            out.responses.into_iter().next().expect("one response"),
            latency,
            lines,
        )
    }

    #[test]
    fn cache_event_jsonl_shape_is_exact() {
        let (r, _, lines) = serve_one();
        assert_eq!(
            lines[0],
            format!(
                "{{\"v\":10,\"seq\":0,\"ev\":\"cache_event\",\"t\":0,\"spec_fp\":{},\
                 \"data_fp\":{},\"cap_watts\":80,\"backend\":\"traditional\",\
                 \"outcome\":\"miss\",\"shard\":{}}}",
                r.key.spec_fp,
                r.key.data_fp,
                r.key.shard(4)
            )
        );
    }

    #[test]
    fn service_request_jsonl_shape_is_exact() {
        let (r, latency, lines) = serve_one();
        assert!(latency > 0.0, "a miss takes modeled time");
        // The one batch starts at t = 0, so the request completes at its
        // latency.
        assert_eq!(
            lines[1],
            format!(
                "{{\"v\":10,\"seq\":1,\"ev\":\"service_request\",\"t\":{},\
                 \"algorithm\":\"Slice\",\"backend\":\"traditional\",\
                 \"spec_fp\":{},\"data_fp\":{},\"cap_watts\":80,\
                 \"outcome\":\"miss\",\"node\":{},\"latency_seconds\":{}}}",
                latency, r.key.spec_fp, r.key.data_fp, r.node, latency
            )
        );
    }

    #[test]
    fn the_native_wave_computes_the_requested_natives_and_no_other() {
        let mut svc = StudyService::new(tiny_cfg()).expect("valid config");
        // tiny_cfg batches by 4: Contour's only request is the last batch.
        let mut traffic: Vec<Request> = [80.0, 60.0, 40.0, 90.0]
            .into_iter()
            .flat_map(|cap| [req(Algorithm::Slice, cap), req(Algorithm::Threshold, cap)])
            .collect();
        traffic.push(req(Algorithm::Contour, 80.0));
        let dpp_slice = Request {
            backend: Backend::Dpp,
            ..req(Algorithm::Slice, 80.0)
        };
        let probes = [
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Threshold, 80.0),
            req(Algorithm::Contour, 80.0),
            req(Algorithm::Isovolume, 80.0),
            dpp_slice,
        ];
        let data_fp = svc.engine.data_fp(6);
        svc.serve(&traffic, &mut Journal::off()).expect("serves");
        let natives = probes[..3]
            .iter()
            .map(|r| svc.engine.native(r, data_fp))
            .collect::<Vec<_>>();
        let replay = svc.serve(&traffic, &mut Journal::off()).expect("serves");
        assert_eq!(replay.report.hits, traffic.len());
        for (r, native) in probes.iter().zip(&natives) {
            assert!(Arc::ptr_eq(&svc.engine.native(r, data_fp), native), "{r:?}");
        }
        // Only the two probes no request names are missing.
        assert_eq!(svc.engine.wave(probes.iter(), 1), 2);
        assert_eq!(svc.engine.wave(probes.iter(), 1), 0);
    }

    /// Natives belong to their engine, datasets to the shared store: a
    /// fresh service, or a fresh engine, on one store computes every
    /// native again, which keeps a cold pass over a warm store cold.
    #[test]
    fn a_fresh_engine_is_cold_on_a_shared_dataset_store() {
        let store = Arc::new(DatasetStore::new());
        let ds = store.dataset(6);
        let data_fp = store.fingerprint(6);
        let traffic = [
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Threshold, 60.0),
            req(Algorithm::Contour, 80.0),
        ];
        let natives = |e: &Engine| traffic.each_ref().map(|r| e.native(r, data_fp));
        let cold = |e: &Engine| e.wave(traffic.iter(), 1) == traffic.len();
        let distinct =
            |a: &[Arc<_>; 3], b: &[Arc<_>; 3]| a.iter().zip(b).all(|(a, b)| !Arc::ptr_eq(a, b));

        let service = || StudyService::with_store(tiny_cfg(), Arc::clone(&store)).expect("valid");
        let (mut first, mut second) = (service(), service());
        first.serve(&traffic, &mut Journal::off()).expect("serves");
        second.serve(&traffic, &mut Journal::off()).expect("serves");
        assert_eq!(second.engine.wave(traffic.iter(), 1), 0, "served its own");
        assert!(distinct(&natives(&first.engine), &natives(&second.engine)));

        let cpu = CpuSpec::broadwell_e5_2695v4();
        let engines = [0, 1].map(|_| Engine::new(Arc::clone(&store), cpu.clone(), 4));
        let warm = natives(&engines[0]);
        assert!(cold(&engines[1]), "the second engine starts cold");
        assert!(distinct(&warm, &natives(&engines[1])));

        assert!(Arc::ptr_eq(&store.dataset(6), &ds), "one dataset build");
        assert_eq!(Arc::strong_count(&store), 5, "four engines hold the store");
    }

    #[test]
    fn slot_capped_cache_evicts_oldest_and_journals_it() {
        let mut svc = StudyService::new(ServiceConfig {
            cache_slots: Some(2),
            ..tiny_cfg()
        })
        .expect("valid config");
        let traffic = vec![
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Threshold, 80.0),
            req(Algorithm::Contour, 80.0), // 3 unique keys > 2 slots
            req(Algorithm::Slice, 80.0),   // same batch → coalesced
            // batch 2: Slice was the oldest resident, evicted at the
            // end of batch 1 — it must *miss* again, not hit.
            req(Algorithm::Slice, 80.0),
        ];
        let mut journal = Journal::with_capacity(1 << 12);
        let out = svc.serve(&traffic, &mut journal).expect("serves");
        let r = &out.report;
        assert_eq!(
            (r.hits, r.misses, r.coalesced),
            (0, 4, 1),
            "evicted key recomputes: {r:?}"
        );
        // Batch 1 evicts Slice, batch 2 evicts Threshold.
        assert_eq!(r.evictions, 2);
        assert_eq!(svc.cache_len(), 2, "cache bounded to the slot budget");
        let evict_lines = journal
            .to_jsonl()
            .lines()
            .filter(|l| l.contains("\"outcome\":\"evict\""))
            .count();
        assert_eq!(evict_lines, 2, "one journaled evict per drop");
        assert!(out.report.render().contains("evictions: 2"));
    }

    #[test]
    fn rejected_batch_leaves_the_eviction_queue_untouched() {
        let mut svc = StudyService::new(ServiceConfig {
            cache_slots: Some(2),
            ..tiny_cfg()
        })
        .expect("valid config");
        let good = [req(Algorithm::Slice, 80.0), req(Algorithm::Threshold, 80.0)];
        let mut poisoned = good.to_vec();
        poisoned.push(Request {
            backend: Backend::Dpp,
            ..req(Algorithm::RayTracing, 80.0)
        });
        let err = svc.serve(&poisoned, &mut Journal::off());
        assert!(
            matches!(err, Err(ServiceError::UnsupportedBackend { .. })),
            "{err:?}"
        );
        // The retry computes both keys and keeps them: the aborted call
        // queued nothing, so nothing is evicted.
        let out = svc.serve(&good, &mut Journal::off()).expect("serves");
        assert_eq!((out.report.misses, out.report.evictions), (2, 0));
        assert_eq!(svc.cache_len(), 2);
    }

    #[test]
    fn a_rejected_request_in_a_later_batch_serves_no_earlier_batch() {
        let good = [
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Threshold, 80.0),
            req(Algorithm::Contour, 80.0),
            req(Algorithm::Slice, 60.0),
        ];
        let mut poisoned = good.to_vec();
        poisoned.push(Request {
            backend: Backend::Dpp,
            ..req(Algorithm::RayTracing, 80.0)
        });
        let serve_good = |svc: &mut StudyService| {
            let mut journal = Journal::with_capacity(1 << 12);
            let out = svc.serve(&good, &mut journal).expect("serves");
            (format!("{:?}", out.report), journal.to_jsonl())
        };
        let mut svc = StudyService::new(tiny_cfg()).expect("valid config");
        // tiny_cfg batches by 4: the bad request opens the second batch.
        let mut journal = Journal::with_capacity(1 << 12);
        let err = svc.serve(&poisoned, &mut journal);
        assert!(
            matches!(err, Err(ServiceError::UnsupportedBackend { .. })),
            "{err:?}"
        );
        assert_eq!(svc.cache_len(), 0, "the first batch was not served");
        assert_eq!(journal.to_jsonl(), "", "nothing was journaled");
        let fresh = serve_good(&mut StudyService::new(tiny_cfg()).expect("valid config"));
        assert_eq!(
            serve_good(&mut svc),
            fresh,
            "the retry serves as a fresh service"
        );
    }

    #[test]
    fn uncapped_service_never_evicts() {
        let mut svc = StudyService::new(tiny_cfg()).expect("valid config");
        let traffic = vec![
            req(Algorithm::Slice, 80.0),
            req(Algorithm::Threshold, 80.0),
            req(Algorithm::Contour, 80.0),
        ];
        let mut journal = Journal::with_capacity(1 << 12);
        let out = svc.serve(&traffic, &mut journal).expect("serves");
        assert_eq!(out.report.evictions, 0);
        assert_eq!(svc.cache_len(), 3);
        assert!(!journal.to_jsonl().contains("\"outcome\":\"evict\""));
        assert!(!out.report.render().contains("evictions"));
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        for (cfg, what) in [
            (
                ServiceConfig {
                    nodes: 0,
                    ..ServiceConfig::default()
                },
                "nodes",
            ),
            (
                ServiceConfig {
                    workers: 0,
                    ..ServiceConfig::default()
                },
                "workers",
            ),
            (
                ServiceConfig {
                    batch: 0,
                    ..ServiceConfig::default()
                },
                "batch",
            ),
            (
                ServiceConfig {
                    shards: 0,
                    ..ServiceConfig::default()
                },
                "shards",
            ),
            (
                ServiceConfig {
                    cache_slots: Some(0),
                    ..ServiceConfig::default()
                },
                "cache_slots",
            ),
        ] {
            match StudyService::new(cfg) {
                Err(ServiceError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig({what}), got {other:?}"),
            }
        }
        match StudyService::new(ServiceConfig {
            fleet_budget: Watts(100.0),
            ..ServiceConfig::default()
        }) {
            Err(ServiceError::BudgetBelowFloor { .. }) => {}
            other => panic!("expected BudgetBelowFloor, got {other:?}"),
        }
    }
}
