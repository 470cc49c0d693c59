//! The run journal: a typed, ring-buffered event stream for run
//! observability.
//!
//! The paper's evaluation hangs on 100 ms samples of RAPL energy and
//! performance counters (§V-B), but aggregates alone cannot say *where
//! inside a run* the joules went. This module is the reproduction's
//! substitute for the paper's msr-safe sampling harness: every layer of
//! the workspace (the executor's sampler, RAPL cap programming,
//! CloverLeaf timesteps, in situ actions, and study phases) emits a
//! typed [`Event`] into a shared [`Journal`], which serializes to
//! line-delimited JSON ([`Journal::to_jsonl`]) and to a
//! `chrome://tracing`-compatible trace file
//! ([`Journal::to_chrome_trace`]).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The journal must be byte-identical across runs
//!    and across `par` thread counts, so it carries no wall-clock
//!    timestamps. Time is a single logical clock ([`Journal::now`])
//!    advanced only by *modeled* seconds: the executor advances it in
//!    lock-step with virtual package time, and the CloverLeaf driver by
//!    each step's simulated `dt`. Layers that model no time of their own
//!    (study orchestration, in situ filter graphs) emit spans whose
//!    endpoints are whatever the clock read when they started/ended —
//!    possibly zero-width.
//! 2. **Zero cost when off.** A disabled journal ([`Journal::off`]) has
//!    capacity 0; emitters guard with [`Journal::is_enabled`] and every
//!    push is a no-op, so the hot executor loop stays untouched for
//!    non-journaled runs.
//! 3. **Bounded memory.** The buffer is a ring: when full, the oldest
//!    event is dropped and counted in [`Journal::dropped`], which both
//!    serializers surface so a truncated journal is never mistaken for a
//!    complete one.
//!
//! The serialized schema is versioned ([`SCHEMA_VERSION`]) and
//! documented in `docs/OBSERVABILITY.md`; `cargo xtask lint` enforces
//! that every public [`Event`] and [`Scope`] variant has a row in that
//! document's schema table.

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::units::{Joules, Watts};

/// Version of the serialized journal schema. Every JSONL line carries it
/// as `"v"`, and the chrome trace embeds it in `otherData`. Bump it when
/// an event's fields or semantics change, and update the schema table in
/// `docs/OBSERVABILITY.md` in the same commit.
///
/// v2 added the [`PolicyDecision`] event and the [`Scope::Governor`]
/// span scope for the closed-loop power governor. v3 added the
/// [`ConformanceCheck`] event and the [`Scope::Conformance`] span scope
/// for the analytic-oracle conformance suite (`crates/conformance`).
/// v5 added a `Bench` span scope for the single-shot wall-clock
/// baseline (removed again in v9). v6 added the
/// [`Scope::Primitive`] span scope carrying per-primitive element/byte
/// counters from the data-parallel-primitives backend (`vizalgo::dpp`).
/// v7 added the [`ServiceRequest`] and [`CacheEvent`] events plus the
/// [`Scope::Service`] span scope for the fingerprint-addressed study
/// service (`crates/service`). v8 added the [`Scope::FlowScenario`]
/// span scope — one zero-width span per advection-scenario sweep row
/// (`core::advect`) — and the `evict` outcome on [`CacheEvent`] for
/// capacity-bounded result caches. v9 removed the `Bench` scope with
/// its only emitter: wall-clock measurement lives in `benchmarks/`, not
/// in the modeled-time journal. Chrome-trace `tid` 9 stays retired so
/// every other scope keeps its track.
pub const SCHEMA_VERSION: u32 = 9;

/// Which layer of the stack emitted a [`Span`].
///
/// Scopes form the attribution hierarchy: a `Study` phase contains
/// `Sweep` rows, a sweep row contains one `Workload` execution, and a
/// workload contains `Kernel` phases. `Timestep` and `Action` spans come
/// from the native (pre-characterization) layer. Each scope maps to its
/// own track (`tid`) in the chrome trace so the hierarchy reads as
/// stacked timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Study/experiment orchestration in `core::study` and
    /// `core::experiments`: dataset builds, native runs, and experiment
    /// phases (`table1:64`, `fig2:32`, ...).
    Study,
    /// One cap point of a power-cap sweep (`core::study::sweep_journaled`).
    Sweep,
    /// One workload execution under a programmed cap
    /// (`powersim::exec::Package::run_journaled`).
    Workload,
    /// One kernel phase inside a workload execution, carrying the
    /// per-phase energy attribution.
    Kernel,
    /// One CloverLeaf hydrodynamics timestep
    /// (`cloverleaf::driver::Simulation::step_journaled`).
    Timestep,
    /// One in situ visualization action (a pipeline, a rendered scene,
    /// or a whole viz cycle) from `insitu::runtime`.
    Action,
    /// One closed-loop governor run: a simulation/visualization pair
    /// executed concurrently under a node power budget
    /// (`governor::control::govern`).
    Governor,
    /// One conformance pass over a single algorithm at one grid size
    /// (`conformance::run_algorithm`): its child events are the
    /// individual [`ConformanceCheck`] results.
    Conformance,
    /// One data-parallel primitive invocation rollup from the DPP
    /// backend (`vizalgo::dpp`): element/byte/flop counters for one
    /// primitive op across a filter execution, journaled by the
    /// conformance driver as zero-width spans.
    Primitive,
    /// Study-service orchestration (`crates/service`): one span per
    /// scheduled request batch (`batch:{index}`) plus a `serve:{requests}`
    /// rollup per traffic run, on the modeled fleet clock.
    Service,
    /// One advection-scenario sweep row (`core::advect`): a zero-width
    /// span carrying the scenario's spec/window fingerprints and the
    /// characterized cost of one (seeding × step-control × termination
    /// × flow-mode) cell.
    FlowScenario,
}

impl Scope {
    /// Lowercase wire name used by both serializers.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Study => "study",
            Scope::Sweep => "sweep",
            Scope::Workload => "workload",
            Scope::Kernel => "kernel",
            Scope::Timestep => "timestep",
            Scope::Action => "action",
            Scope::Governor => "governor",
            Scope::Conformance => "conformance",
            Scope::Primitive => "primitive",
            Scope::Service => "service",
            Scope::FlowScenario => "flow_scenario",
        }
    }

    /// Chrome-trace track id for this scope (`tid` field).
    fn tid(self) -> u32 {
        match self {
            Scope::Study => 1,
            Scope::Sweep => 2,
            Scope::Workload => 3,
            Scope::Kernel => 4,
            Scope::Timestep => 5,
            Scope::Action => 6,
            Scope::Governor => 7,
            Scope::Conformance => 8,
            Scope::Primitive => 10,
            Scope::Service => 11,
            Scope::FlowScenario => 12,
        }
    }
}

/// All scope/track pairs, for chrome-trace thread-name metadata.
const ALL_SCOPES: [Scope; 11] = [
    Scope::Study,
    Scope::Sweep,
    Scope::Workload,
    Scope::Kernel,
    Scope::Timestep,
    Scope::Action,
    Scope::Governor,
    Scope::Conformance,
    Scope::Primitive,
    Scope::Service,
    Scope::FlowScenario,
];

/// A closed interval of journal time attributed to one named unit of
/// work, optionally carrying an energy rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which layer emitted the span.
    pub scope: Scope,
    /// Name of the unit of work, namespaced by convention
    /// (`"cap:70W"`, `"pipeline:contour"`, `"table1:64"`, ...).
    pub name: String,
    /// Journal time at which the span opened (seconds).
    pub t0: f64,
    /// Journal time at which the span closed (seconds, `>= t0`).
    pub t1: f64,
    /// Energy attributed to this span, if the emitting layer models
    /// energy. Kernel spans carry exact per-phase attribution; parent
    /// spans carry the rollup (sum) of their children.
    pub joules: Option<Joules>,
    /// Mean power over the span (`joules / (t1 - t0)`), present whenever
    /// `joules` is present and the span has nonzero width.
    pub watts: Option<Watts>,
    /// Scope-specific numeric annotations (instruction counts, step
    /// indices, ...). Keys are static by construction so the schema
    /// stays enumerable.
    pub args: Vec<(&'static str, f64)>,
}

/// One 100 ms sampler reading from the executor, mirroring the derived
/// metrics of [`crate::exec::Sample`] on the journal timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Journal time at the end of the sampling interval (seconds).
    pub t: f64,
    /// Mean package power over the interval, from the energy MSR delta.
    pub power_watts: Watts,
    /// Effective frequency over the interval (APERF/MPERF), in GHz.
    pub effective_freq_ghz: f64,
    /// Instructions per reference cycle over the interval.
    pub ipc: f64,
    /// LLC miss rate (misses / references) over the interval.
    pub llc_miss_rate: f64,
}

/// A RAPL package power-limit reprogramming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapChange {
    /// Journal time of the MSR write (seconds).
    pub t: f64,
    /// The cap the caller asked for.
    pub requested_watts: Watts,
    /// The cap actually programmed after clamping to the package's
    /// supported range.
    pub actual_watts: Watts,
}

/// One control decision of the closed-loop power governor: the per-side
/// observations of the last 100 ms window and the cap split chosen for
/// the next one. A cap of 0 W marks a side whose workload has completed
/// (its package is idle and excluded from the budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision {
    /// Journal time of the decision (end of the observed window, seconds).
    pub t: f64,
    /// The node power budget the governor splits.
    pub budget_watts: Watts,
    /// Cap chosen for the simulation package (0 W once it completed).
    pub sim_cap_watts: Watts,
    /// Cap chosen for the visualization package (0 W once it completed).
    pub viz_cap_watts: Watts,
    /// Observed simulation-package power over the window.
    pub sim_power_watts: Watts,
    /// Observed visualization-package power over the window.
    pub viz_power_watts: Watts,
    /// Observed simulation IPC (instructions / reference cycle).
    pub sim_ipc: f64,
    /// Observed visualization IPC (instructions / reference cycle).
    pub viz_ipc: f64,
    /// Observed simulation LLC miss ratio (misses / references).
    pub sim_llc_miss_rate: f64,
    /// Observed visualization LLC miss ratio (misses / references).
    pub viz_llc_miss_rate: f64,
}

/// One verdict of the analytic-oracle conformance suite
/// (`crates/conformance`): a single measured quantity compared against
/// its closed-form or reference expectation. `pass` is recorded rather
/// than derived so a serialized journal is self-contained evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceCheck {
    /// Journal time of the check (seconds; conformance runs model no
    /// time, so this is whatever the clock read).
    pub t: f64,
    /// Display name of the algorithm under test (`"Contour"`, ...).
    pub algorithm: String,
    /// Check identifier, namespaced by kind (`"oracle:sphere-area"`,
    /// `"differential:mesh-canonical"`, `"metamorphic:clip-complement"`).
    pub check: String,
    /// Check family: `"oracle"`, `"differential"`, or `"metamorphic"`.
    pub kind: String,
    /// Grid resolution (cells per axis) the check ran at.
    pub grid: u32,
    /// The quantity the kernel produced.
    pub measured: f64,
    /// The closed-form or reference expectation.
    pub expected: f64,
    /// Absolute tolerance: the check passes iff
    /// `|measured - expected| <= tolerance` (0 for exact checks).
    pub tolerance: f64,
    /// Whether the check passed.
    pub pass: bool,
}

/// One request served by the fingerprint-addressed study service
/// (`crates/service`): its full cache key, how the scheduler classified
/// it (fresh execution, in-batch coalesce, or cache hit), and its modeled
/// completion on the fleet clock. Classification happens deterministically
/// at dispatch time, so these events are byte-identical across worker
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Journal time at which the response was ready (seconds; equals the
    /// batch arrival time for cache hits).
    pub t: f64,
    /// Display name of the requested algorithm (`"Contour"`, ...).
    pub algorithm: String,
    /// Execution backend the request named (`"traditional"` / `"dpp"`).
    pub backend: String,
    /// 48-bit spec fingerprint component of the cache key (exact in f64).
    pub spec_fp: f64,
    /// 48-bit dataset fingerprint component of the cache key.
    pub data_fp: f64,
    /// Admitted power-cap component of the cache key.
    pub cap_watts: Watts,
    /// Scheduler classification: `"hit"`, `"miss"`, or `"coalesced"`.
    pub outcome: String,
    /// Simulated node the backing execution was placed on (the node of
    /// the coalesced-onto job for coalesced requests; 0 for hits, which
    /// run on no node).
    pub node: u32,
    /// Modeled seconds from batch arrival to response (0 for hits).
    pub latency_seconds: f64,
}

/// One result-cache lookup outcome from the study service's sharded
/// fingerprint-addressed cache, recorded at batch-dispatch time.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEvent {
    /// Journal time of the lookup (seconds; the batch arrival time).
    pub t: f64,
    /// 48-bit spec fingerprint component of the looked-up key.
    pub spec_fp: f64,
    /// 48-bit dataset fingerprint component of the looked-up key.
    pub data_fp: f64,
    /// Admitted power-cap component of the looked-up key.
    pub cap_watts: Watts,
    /// Backend component of the looked-up key (`"traditional"` / `"dpp"`).
    pub backend: String,
    /// Lookup outcome: `"hit"`, `"miss"`, or `"coalesced"` — or
    /// `"evict"` (schema v8) when a capacity-bounded cache drops its
    /// oldest ready entry.
    pub outcome: String,
    /// Cache shard the key hashes to.
    pub shard: u32,
}

/// One journal entry. Every variant is documented in the schema table of
/// `docs/OBSERVABILITY.md`; `cargo xtask lint` fails if a variant is
/// added without a matching row.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed interval of attributed work.
    Span(Span),
    /// A 100 ms executor sampler reading.
    Counter(CounterSample),
    /// A RAPL cap reprogramming.
    CapChange(CapChange),
    /// A governor control decision (observed ratios + chosen cap split).
    PolicyDecision(PolicyDecision),
    /// One conformance-suite verdict (measured vs expected).
    ConformanceCheck(ConformanceCheck),
    /// One study-service request: cache key, classification, and modeled
    /// completion (`crates/service`).
    ServiceRequest(ServiceRequest),
    /// One study-service result-cache lookup outcome.
    CacheEvent(CacheEvent),
}

/// Ring-buffered event journal with a logical clock.
///
/// Construct with [`Journal::with_capacity`] to record, or
/// [`Journal::off`] (also [`Default`]) for a disabled journal that
/// ignores every push. See the module docs for the clock and
/// determinism contract.
#[derive(Debug, Clone)]
pub struct Journal {
    /// `(seq, event)` pairs; `seq` is assigned at push time and survives
    /// ring eviction, so gaps in the serialized stream reveal drops.
    events: VecDeque<(u64, Event)>,
    capacity: usize,
    dropped: u64,
    seq: u64,
    t: f64,
}

impl Journal {
    /// A disabled journal: capacity 0, every push a no-op.
    pub fn off() -> Journal {
        Journal::with_capacity(0)
    }

    /// A journal holding at most `capacity` events; once full, each push
    /// evicts the oldest event and increments [`Journal::dropped`].
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            seq: 0,
            t: 0.0,
        }
    }

    /// Whether pushes are recorded. Emitters on hot paths should guard
    /// span construction (allocation, `format!`) behind this.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current journal time in seconds.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Advance the journal clock by `dt` seconds of modeled time. Only
    /// layers that model time call this (the executor, the CloverLeaf
    /// driver); see the module docs.
    pub fn advance(&mut self, dt: f64) {
        self.t += dt;
    }

    /// Record an event (no-op when disabled; evicts the oldest event
    /// when full).
    pub fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((self.seq, event));
        self.seq += 1;
    }

    /// Record a [`Span`] closing now: `t1` is the current clock, and the
    /// mean power is derived from `joules` when the span has width.
    pub fn push_span(
        &mut self,
        scope: Scope,
        name: impl Into<String>,
        t0: f64,
        joules: Option<Joules>,
        args: Vec<(&'static str, f64)>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let t1 = self.t;
        let width = t1 - t0;
        let watts = match joules {
            Some(j) if width > 0.0 => Some(j.over_seconds(width)),
            _ => None,
        };
        self.push(Event::Span(Span {
            scope,
            name: name.into(),
            t0,
            t1,
            joules,
            watts,
            args,
        }));
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().map(|(_, e)| e)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of buffered events (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serialize to line-delimited JSON, one event per line, oldest
    /// first. Deterministic: field order is fixed, floats use Rust's
    /// shortest-roundtrip formatting, absent options are omitted.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, event) in &self.events {
            write_jsonl_line(&mut out, *seq, event);
        }
        out
    }

    /// Serialize to the Trace Event Format JSON understood by
    /// `chrome://tracing` and Perfetto. Spans become complete (`"X"`)
    /// events on per-scope tracks, counter samples a `"C"` counter
    /// track, and cap changes global instant (`"i"`) events. Journal
    /// seconds are exported as trace microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{SCHEMA_VERSION},\
             \"dropped\":{}}},\"traceEvents\":[",
            self.dropped
        );
        let mut first = true;
        for scope in ALL_SCOPES {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                scope.tid(),
                scope.name()
            );
        }
        for (_, event) in &self.events {
            sep(&mut out, &mut first);
            write_chrome_event(&mut out, event);
        }
        out.push_str("]}\n");
        out
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::off()
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// JSON string escaping for the subset of strings we emit (names come
/// from workload/algorithm identifiers, but escape fully anyway).
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Write an `f64` as a JSON number. Rust's `Display` for `f64` is the
/// shortest string that round-trips, which is both deterministic and
/// valid JSON for finite values; non-finite values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_args(out: &mut String, args: &[(&'static str, f64)]) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, key);
        out.push_str("\":");
        push_f64(out, *value);
    }
    out.push('}');
}

fn write_jsonl_line(out: &mut String, seq: u64, event: &Event) {
    let _ = write!(out, "{{\"v\":{SCHEMA_VERSION},\"seq\":{seq},");
    match event {
        Event::Span(s) => {
            out.push_str("\"ev\":\"span\",\"scope\":\"");
            out.push_str(s.scope.name());
            out.push_str("\",\"name\":\"");
            json_escape_into(out, &s.name);
            out.push_str("\",\"t0\":");
            push_f64(out, s.t0);
            out.push_str(",\"t1\":");
            push_f64(out, s.t1);
            if let Some(j) = s.joules {
                out.push_str(",\"joules\":");
                push_f64(out, j.value());
            }
            if let Some(w) = s.watts {
                out.push_str(",\"watts\":");
                push_f64(out, w.value());
            }
            if !s.args.is_empty() {
                out.push_str(",\"args\":");
                push_args(out, &s.args);
            }
        }
        Event::Counter(c) => {
            out.push_str("\"ev\":\"counter\",\"t\":");
            push_f64(out, c.t);
            out.push_str(",\"power_watts\":");
            push_f64(out, c.power_watts.value());
            out.push_str(",\"effective_freq_ghz\":");
            push_f64(out, c.effective_freq_ghz);
            out.push_str(",\"ipc\":");
            push_f64(out, c.ipc);
            out.push_str(",\"llc_miss_rate\":");
            push_f64(out, c.llc_miss_rate);
        }
        Event::CapChange(c) => {
            out.push_str("\"ev\":\"cap_change\",\"t\":");
            push_f64(out, c.t);
            out.push_str(",\"requested_watts\":");
            push_f64(out, c.requested_watts.value());
            out.push_str(",\"actual_watts\":");
            push_f64(out, c.actual_watts.value());
        }
        Event::PolicyDecision(d) => {
            out.push_str("\"ev\":\"policy_decision\",\"t\":");
            push_f64(out, d.t);
            out.push_str(",\"budget_watts\":");
            push_f64(out, d.budget_watts.value());
            out.push_str(",\"sim_cap_watts\":");
            push_f64(out, d.sim_cap_watts.value());
            out.push_str(",\"viz_cap_watts\":");
            push_f64(out, d.viz_cap_watts.value());
            out.push_str(",\"sim_power_watts\":");
            push_f64(out, d.sim_power_watts.value());
            out.push_str(",\"viz_power_watts\":");
            push_f64(out, d.viz_power_watts.value());
            out.push_str(",\"sim_ipc\":");
            push_f64(out, d.sim_ipc);
            out.push_str(",\"viz_ipc\":");
            push_f64(out, d.viz_ipc);
            out.push_str(",\"sim_llc_miss_rate\":");
            push_f64(out, d.sim_llc_miss_rate);
            out.push_str(",\"viz_llc_miss_rate\":");
            push_f64(out, d.viz_llc_miss_rate);
        }
        Event::ConformanceCheck(c) => {
            out.push_str("\"ev\":\"conformance_check\",\"t\":");
            push_f64(out, c.t);
            out.push_str(",\"algorithm\":\"");
            json_escape_into(out, &c.algorithm);
            out.push_str("\",\"check\":\"");
            json_escape_into(out, &c.check);
            out.push_str("\",\"kind\":\"");
            json_escape_into(out, &c.kind);
            let _ = write!(out, "\",\"grid\":{},", c.grid);
            out.push_str("\"measured\":");
            push_f64(out, c.measured);
            out.push_str(",\"expected\":");
            push_f64(out, c.expected);
            out.push_str(",\"tolerance\":");
            push_f64(out, c.tolerance);
            out.push_str(",\"pass\":");
            out.push_str(if c.pass { "true" } else { "false" });
        }
        Event::ServiceRequest(r) => {
            out.push_str("\"ev\":\"service_request\",\"t\":");
            push_f64(out, r.t);
            out.push_str(",\"algorithm\":\"");
            json_escape_into(out, &r.algorithm);
            out.push_str("\",\"backend\":\"");
            json_escape_into(out, &r.backend);
            out.push_str("\",\"spec_fp\":");
            push_f64(out, r.spec_fp);
            out.push_str(",\"data_fp\":");
            push_f64(out, r.data_fp);
            out.push_str(",\"cap_watts\":");
            push_f64(out, r.cap_watts.value());
            out.push_str(",\"outcome\":\"");
            json_escape_into(out, &r.outcome);
            let _ = write!(out, "\",\"node\":{},", r.node);
            out.push_str("\"latency_seconds\":");
            push_f64(out, r.latency_seconds);
        }
        Event::CacheEvent(c) => {
            out.push_str("\"ev\":\"cache_event\",\"t\":");
            push_f64(out, c.t);
            out.push_str(",\"spec_fp\":");
            push_f64(out, c.spec_fp);
            out.push_str(",\"data_fp\":");
            push_f64(out, c.data_fp);
            out.push_str(",\"cap_watts\":");
            push_f64(out, c.cap_watts.value());
            out.push_str(",\"backend\":\"");
            json_escape_into(out, &c.backend);
            out.push_str("\",\"outcome\":\"");
            json_escape_into(out, &c.outcome);
            let _ = write!(out, "\",\"shard\":{}", c.shard);
        }
    }
    out.push_str("}\n");
}

fn write_chrome_event(out: &mut String, event: &Event) {
    match event {
        Event::Span(s) => {
            out.push_str("{\"ph\":\"X\",\"name\":\"");
            json_escape_into(out, &s.name);
            out.push_str("\",\"cat\":\"");
            out.push_str(s.scope.name());
            let _ = write!(out, "\",\"pid\":1,\"tid\":{},\"ts\":", s.scope.tid());
            push_f64(out, s.t0 * 1e6);
            out.push_str(",\"dur\":");
            push_f64(out, (s.t1 - s.t0) * 1e6);
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(j) = s.joules {
                sep(out, &mut first);
                out.push_str("\"joules\":");
                push_f64(out, j.value());
            }
            if let Some(w) = s.watts {
                sep(out, &mut first);
                out.push_str("\"watts\":");
                push_f64(out, w.value());
            }
            for (key, value) in &s.args {
                sep(out, &mut first);
                out.push('"');
                json_escape_into(out, key);
                out.push_str("\":");
                push_f64(out, *value);
            }
            out.push_str("}}");
        }
        Event::Counter(c) => {
            out.push_str("{\"ph\":\"C\",\"name\":\"sampler\",\"pid\":1,\"ts\":");
            push_f64(out, c.t * 1e6);
            out.push_str(",\"args\":{\"power_watts\":");
            push_f64(out, c.power_watts.value());
            out.push_str(",\"effective_freq_ghz\":");
            push_f64(out, c.effective_freq_ghz);
            out.push_str(",\"ipc\":");
            push_f64(out, c.ipc);
            out.push_str(",\"llc_miss_rate\":");
            push_f64(out, c.llc_miss_rate);
            out.push_str("}}");
        }
        Event::CapChange(c) => {
            out.push_str(
                "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"cap_change\",\"pid\":1,\"tid\":0,\
                 \"ts\":",
            );
            push_f64(out, c.t * 1e6);
            out.push_str(",\"args\":{\"requested_watts\":");
            push_f64(out, c.requested_watts.value());
            out.push_str(",\"actual_watts\":");
            push_f64(out, c.actual_watts.value());
            out.push_str("}}");
        }
        Event::PolicyDecision(d) => {
            // A counter track: the split and the observed draw plot as
            // stacked series against the budget over journal time.
            out.push_str("{\"ph\":\"C\",\"name\":\"governor\",\"pid\":1,\"ts\":");
            push_f64(out, d.t * 1e6);
            out.push_str(",\"args\":{\"budget_watts\":");
            push_f64(out, d.budget_watts.value());
            out.push_str(",\"sim_cap_watts\":");
            push_f64(out, d.sim_cap_watts.value());
            out.push_str(",\"viz_cap_watts\":");
            push_f64(out, d.viz_cap_watts.value());
            out.push_str(",\"sim_power_watts\":");
            push_f64(out, d.sim_power_watts.value());
            out.push_str(",\"viz_power_watts\":");
            push_f64(out, d.viz_power_watts.value());
            out.push_str("}}");
        }
        Event::ConformanceCheck(c) => {
            // A global instant on the conformance track, named by the
            // check, so failures are visible on the timeline.
            let _ = write!(out, "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"",);
            json_escape_into(out, &c.check);
            let _ = write!(
                out,
                "\",\"cat\":\"conformance\",\"pid\":1,\"tid\":{},\"ts\":",
                Scope::Conformance.tid()
            );
            push_f64(out, c.t * 1e6);
            out.push_str(",\"args\":{\"algorithm\":\"");
            json_escape_into(out, &c.algorithm);
            out.push_str("\",\"kind\":\"");
            json_escape_into(out, &c.kind);
            let _ = write!(out, "\",\"grid\":{},", c.grid);
            out.push_str("\"measured\":");
            push_f64(out, c.measured);
            out.push_str(",\"expected\":");
            push_f64(out, c.expected);
            out.push_str(",\"tolerance\":");
            push_f64(out, c.tolerance);
            out.push_str(",\"pass\":");
            out.push_str(if c.pass { "true" } else { "false" });
            out.push_str("}}");
        }
        Event::ServiceRequest(r) => {
            // A complete event on the service track spanning the modeled
            // latency: hits are zero-width instants at batch arrival,
            // misses stretch to their node's completion time.
            out.push_str("{\"ph\":\"X\",\"name\":\"");
            json_escape_into(out, &r.algorithm);
            out.push_str("\",\"cat\":\"service\",\"pid\":1,\"tid\":");
            let _ = write!(out, "{},\"ts\":", Scope::Service.tid());
            push_f64(out, (r.t - r.latency_seconds) * 1e6);
            out.push_str(",\"dur\":");
            push_f64(out, r.latency_seconds * 1e6);
            out.push_str(",\"args\":{\"backend\":\"");
            json_escape_into(out, &r.backend);
            out.push_str("\",\"spec_fp\":");
            push_f64(out, r.spec_fp);
            out.push_str(",\"data_fp\":");
            push_f64(out, r.data_fp);
            out.push_str(",\"cap_watts\":");
            push_f64(out, r.cap_watts.value());
            out.push_str(",\"outcome\":\"");
            json_escape_into(out, &r.outcome);
            let _ = write!(out, "\",\"node\":{}}}}}", r.node);
        }
        Event::CacheEvent(c) => {
            // A thread-scoped instant on the service track, named by the
            // lookup outcome, so hit/miss streaks read off the timeline.
            out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"cache:");
            json_escape_into(out, &c.outcome);
            let _ = write!(
                out,
                "\",\"cat\":\"service\",\"pid\":1,\"tid\":{},\"ts\":",
                Scope::Service.tid()
            );
            push_f64(out, c.t * 1e6);
            out.push_str(",\"args\":{\"spec_fp\":");
            push_f64(out, c.spec_fp);
            out.push_str(",\"data_fp\":");
            push_f64(out, c.data_fp);
            out.push_str(",\"cap_watts\":");
            push_f64(out, c.cap_watts.value());
            out.push_str(",\"backend\":\"");
            json_escape_into(out, &c.backend);
            let _ = write!(out, "\",\"shard\":{}}}}}", c.shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_ignores_everything() {
        let mut j = Journal::off();
        assert!(!j.is_enabled());
        j.push(Event::CapChange(CapChange {
            t: 0.0,
            requested_watts: Watts(70.0),
            actual_watts: Watts(70.0),
        }));
        j.push_span(Scope::Study, "x", 0.0, None, Vec::new());
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.to_jsonl(), "");
    }

    #[test]
    fn ring_evicts_oldest_and_preserves_seq() {
        let mut j = Journal::with_capacity(2);
        for i in 0..4 {
            j.advance(1.0);
            j.push_span(
                Scope::Kernel,
                format!("k{i}"),
                j.now() - 1.0,
                None,
                Vec::new(),
            );
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 2);
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"seq\":2,"), "{jsonl}");
        assert!(jsonl.contains("\"seq\":3,"), "{jsonl}");
        assert!(!jsonl.contains("\"seq\":0,"), "{jsonl}");
    }

    #[test]
    fn span_derives_mean_power_from_joules() {
        let mut j = Journal::with_capacity(8);
        let t0 = j.now();
        j.advance(2.0);
        j.push_span(
            Scope::Kernel,
            "c",
            t0,
            Some(Joules(100.0)),
            vec![("phase_index", 0.0)],
        );
        let events: Vec<&Event> = j.events().collect();
        match events[0] {
            Event::Span(s) => {
                assert_eq!(s.t0, 0.0);
                assert_eq!(s.t1, 2.0);
                assert_eq!(s.joules, Some(Joules(100.0)));
                assert_eq!(s.watts, Some(Watts(50.0)));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn zero_width_span_has_no_watts() {
        let mut j = Journal::with_capacity(8);
        j.push_span(
            Scope::Study,
            "setup",
            j.now(),
            Some(Joules(1.0)),
            Vec::new(),
        );
        match j.events().next() {
            Some(Event::Span(s)) => assert_eq!(s.watts, None),
            other => panic!("unexpected event {other:?}"),
        };
    }

    #[test]
    fn jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(8);
        j.push(Event::CapChange(CapChange {
            t: 0.0,
            requested_watts: Watts(250.0),
            actual_watts: Watts(120.0),
        }));
        j.advance(0.1);
        j.push(Event::Counter(CounterSample {
            t: j.now(),
            power_watts: Watts(85.5),
            effective_freq_ghz: 2.6,
            ipc: 1.25,
            llc_miss_rate: 0.05,
        }));
        j.push_span(
            Scope::Workload,
            "contour_64",
            0.0,
            Some(Joules(8.55)),
            vec![("phases", 2.0)],
        );
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"v\":9,\"seq\":0,\"ev\":\"cap_change\",\"t\":0,\
             \"requested_watts\":250,\"actual_watts\":120}"
        );
        assert_eq!(
            lines[1],
            "{\"v\":9,\"seq\":1,\"ev\":\"counter\",\"t\":0.1,\"power_watts\":85.5,\
             \"effective_freq_ghz\":2.6,\"ipc\":1.25,\"llc_miss_rate\":0.05}"
        );
        assert_eq!(
            lines[2],
            "{\"v\":9,\"seq\":2,\"ev\":\"span\",\"scope\":\"workload\",\"name\":\"contour_64\",\
             \"t0\":0,\"t1\":0.1,\"joules\":8.55,\"watts\":85.5,\"args\":{\"phases\":2}}"
        );
    }

    #[test]
    fn policy_decision_jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(4);
        j.advance(0.1);
        j.push(Event::PolicyDecision(PolicyDecision {
            t: j.now(),
            budget_watts: Watts(160.0),
            sim_cap_watts: Watts(110.0),
            viz_cap_watts: Watts(50.0),
            sim_power_watts: Watts(88.25),
            viz_power_watts: Watts(46.5),
            sim_ipc: 1.8,
            viz_ipc: 0.4,
            sim_llc_miss_rate: 0.05,
            viz_llc_miss_rate: 0.9,
        }));
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl.trim_end(),
            "{\"v\":9,\"seq\":0,\"ev\":\"policy_decision\",\"t\":0.1,\"budget_watts\":160,\
             \"sim_cap_watts\":110,\"viz_cap_watts\":50,\"sim_power_watts\":88.25,\
             \"viz_power_watts\":46.5,\"sim_ipc\":1.8,\"viz_ipc\":0.4,\
             \"sim_llc_miss_rate\":0.05,\"viz_llc_miss_rate\":0.9}"
        );
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains("\"ph\":\"C\",\"name\":\"governor\""),
            "{trace}"
        );
        assert!(trace.contains("\"thread_name\""), "{trace}");
    }

    #[test]
    fn conformance_check_jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(4);
        j.push(Event::ConformanceCheck(ConformanceCheck {
            t: 0.0,
            algorithm: "Contour".into(),
            check: "oracle:sphere-area".into(),
            kind: "oracle".into(),
            grid: 32,
            measured: 1.1286,
            expected: 1.13097,
            tolerance: 0.0226,
            pass: true,
        }));
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl.trim_end(),
            "{\"v\":9,\"seq\":0,\"ev\":\"conformance_check\",\"t\":0,\
             \"algorithm\":\"Contour\",\"check\":\"oracle:sphere-area\",\
             \"kind\":\"oracle\",\"grid\":32,\"measured\":1.1286,\
             \"expected\":1.13097,\"tolerance\":0.0226,\"pass\":true}"
        );
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains("\"ph\":\"i\",\"s\":\"t\",\"name\":\"oracle:sphere-area\""),
            "{trace}"
        );
        assert!(trace.contains("\"pass\":true"), "{trace}");
        assert!(trace.contains("\"name\":\"conformance\""), "{trace}");
    }

    #[test]
    fn service_request_jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(4);
        j.advance(1.5);
        j.push(Event::ServiceRequest(ServiceRequest {
            t: j.now(),
            algorithm: "Contour".into(),
            backend: "traditional".into(),
            spec_fp: 123456789.0,
            data_fp: 987654321.0,
            cap_watts: Watts(80.0),
            outcome: "miss".into(),
            node: 2,
            latency_seconds: 0.5,
        }));
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl.trim_end(),
            "{\"v\":9,\"seq\":0,\"ev\":\"service_request\",\"t\":1.5,\
             \"algorithm\":\"Contour\",\"backend\":\"traditional\",\
             \"spec_fp\":123456789,\"data_fp\":987654321,\"cap_watts\":80,\
             \"outcome\":\"miss\",\"node\":2,\"latency_seconds\":0.5}"
        );
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains("\"ph\":\"X\",\"name\":\"Contour\",\"cat\":\"service\""),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":500000"), "{trace}");
        assert!(trace.contains("\"name\":\"service\""), "{trace}");
    }

    #[test]
    fn cache_event_jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(4);
        j.push(Event::CacheEvent(CacheEvent {
            t: 0.0,
            spec_fp: 42.0,
            data_fp: 7.0,
            cap_watts: Watts(120.0),
            backend: "dpp".into(),
            outcome: "coalesced".into(),
            shard: 5,
        }));
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl.trim_end(),
            "{\"v\":9,\"seq\":0,\"ev\":\"cache_event\",\"t\":0,\"spec_fp\":42,\
             \"data_fp\":7,\"cap_watts\":120,\"backend\":\"dpp\",\
             \"outcome\":\"coalesced\",\"shard\":5}"
        );
        let trace = j.to_chrome_trace();
        assert!(
            trace.contains("\"ph\":\"i\",\"s\":\"t\",\"name\":\"cache:coalesced\""),
            "{trace}"
        );
        assert!(trace.contains("\"shard\":5"), "{trace}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut j = Journal::with_capacity(4);
        j.push_span(Scope::Study, "a\"b\\c\nd", j.now(), None, Vec::new());
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"name\":\"a\\\"b\\\\c\\nd\""), "{jsonl}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut j = Journal::with_capacity(4);
        j.push(Event::Counter(CounterSample {
            t: 0.0,
            power_watts: Watts(f64::NAN),
            effective_freq_ghz: f64::INFINITY,
            ipc: 0.0,
            llc_miss_rate: 0.0,
        }));
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"power_watts\":null"), "{jsonl}");
        assert!(jsonl.contains("\"effective_freq_ghz\":null"), "{jsonl}");
    }

    #[test]
    fn chrome_trace_has_tracks_and_events() {
        let mut j = Journal::with_capacity(8);
        j.advance(0.5);
        j.push_span(Scope::Timestep, "step:1", 0.0, None, vec![("dt", 0.5)]);
        let trace = j.to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""), "{trace}");
        assert!(trace.contains("\"schema_version\":9"), "{trace}");
        assert!(trace.contains("\"thread_name\""), "{trace}");
        assert!(
            trace.contains("\"ph\":\"X\",\"name\":\"step:1\""),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":500000"), "{trace}");
        assert!(trace.ends_with("]}\n"), "{trace}");
    }

    #[test]
    fn clock_advances_only_on_advance() {
        let mut j = Journal::with_capacity(4);
        assert_eq!(j.now(), 0.0);
        j.push_span(Scope::Study, "s", j.now(), None, Vec::new());
        assert_eq!(j.now(), 0.0);
        j.advance(0.25);
        assert_eq!(j.now(), 0.25);
    }
}
