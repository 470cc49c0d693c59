//! The run journal: a ring-buffered event stream for run observability.
//!
//! The paper's evaluation hangs on 100 ms samples of RAPL energy and
//! performance counters (§V-B), but aggregates alone cannot say *where
//! inside a run* the joules went. This module is the reproduction's
//! substitute for the paper's msr-safe sampling harness: every layer of
//! the workspace emits an [`Event`] into a shared [`Journal`], which
//! serializes to line-delimited JSON ([`Journal::to_jsonl`]) and to a
//! `chrome://tracing`-compatible trace file
//! ([`Journal::to_chrome_trace`]).
//!
//! There are two event shapes. A [`Span`] is an interval of journal
//! time attributed to one named unit of work in a [`Scope`]. A
//! [`Record`] is a point in journal time carrying named [`Value`]s,
//! tagged with its [`Kind`]; its emitter lists the fields in place and
//! both serializers render any record generically, so a new layer adds
//! one `Kind` variant and one row of `docs/OBSERVABILITY.md`.
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
//!    capacity 0. Emitters pass [`Journal::push_span`] and
//!    [`Journal::push_record`] a builder for the span's name and args or
//!    the record's fields, and the journal calls it only when it records,
//!    so a non-journaled run formats and allocates nothing for it.
//! 3. **Bounded memory.** The buffer is a ring: when full, the oldest
//!    event is dropped and counted in [`Journal::dropped`]. The chrome
//!    trace carries that count; in the JSONL stream a drop shows as a
//!    gap in `seq`, so a truncated journal is never mistaken for a
//!    complete one.
//!
//! The serialized schema is versioned (`SCHEMA_VERSION`) and
//! documented in `docs/OBSERVABILITY.md`; the unit test
//! `schema_table_in_the_docs_matches_the_wire_tables` checks that every
//! [`Kind`] and [`Scope`] variant has a row in its schema table.

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::units::{Joules, Watts};

/// Version of the serialized journal schema. Every JSONL line carries it
/// as `"v"`, and the chrome trace embeds it in `otherData`. Bump it when
/// a kind's fields or semantics change, and update the schema table and
/// the version history in `docs/OBSERVABILITY.md` in the same commit.
pub(crate) const SCHEMA_VERSION: u32 = 10;

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
    /// One cap point of a power-cap sweep (`core::study::StudyContext::sweep`).
    Sweep,
    /// One workload execution under a programmed cap
    /// (`powersim::exec::Package::run`).
    Workload,
    /// One kernel phase inside a workload execution, carrying the
    /// per-phase energy attribution.
    Kernel,
    /// One CloverLeaf hydrodynamics timestep
    /// (`cloverleaf::driver::Simulation::step_phases`).
    Timestep,
    /// One in situ visualization action (a pipeline, a rendered scene,
    /// or a whole viz cycle) from `insitu::runtime`.
    Action,
    /// One closed-loop governor run: a simulation/visualization pair
    /// executed concurrently under a node power budget
    /// (`governor::control::govern`).
    Governor,
    /// Study-service orchestration (`crates/service`): one span per
    /// scheduled request batch (`batch:{index}`) plus a `serve:{requests}`
    /// rollup per traffic run, on the modeled fleet clock.
    Service,
}

/// One row per [`Scope`] variant, in declaration order: the variant, its
/// wire name, and its chrome-trace track (`tid`). Track ids are never
/// reused: 9 is retired (`bench`, v5–v8), and 8, 10 and 12 went with
/// their v9 scopes to the [`Kind`]s that replaced them.
const SCOPES: [(Scope, &str, u32); 8] = [
    (Scope::Study, "study", 1),
    (Scope::Sweep, "sweep", 2),
    (Scope::Workload, "workload", 3),
    (Scope::Kernel, "kernel", 4),
    (Scope::Timestep, "timestep", 5),
    (Scope::Action, "action", 6),
    (Scope::Governor, "governor", 7),
    (Scope::Service, "service", 11),
];

impl Scope {
    /// Lowercase wire name used by both serializers.
    pub(crate) fn name(self) -> &'static str {
        SCOPES[self as usize].1
    }

    /// Chrome-trace track id for this scope (`tid` field).
    fn tid(self) -> u32 {
        SCOPES[self as usize].2
    }
}

/// What a [`Record`] reports. The field list of each kind lives with its
/// one emitter and in the schema table of `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One 100 ms sampler reading from the executor, mirroring the
    /// derived metrics of [`crate::exec::Sample`] on the journal timeline.
    Counter,
    /// A RAPL package power-limit reprogramming: the cap asked for and
    /// the cap programmed after clamping to the package's range.
    CapChange,
    /// One control decision of the closed-loop power governor: what each
    /// side did over the last 100 ms window and the cap split chosen for
    /// the next one. A cap of 0 W marks a side whose workload completed.
    PolicyDecision,
    /// One conformance group (an algorithm at one grid size): check and
    /// failure counts and the fingerprint of the spec it checked, after
    /// the group's [`Kind::ConformanceCheck`] records.
    Conformance,
    /// One verdict of the conformance suite (`crates/conformance`): a
    /// measured quantity against its expectation. `pass` is recorded, not
    /// derived, so a serialized journal is self-contained evidence.
    ConformanceCheck,
    /// One data-parallel primitive rollup from the DPP backend
    /// (`vizalgo::dpp`): element/byte/flop counters for one primitive op
    /// across a filter execution.
    Primitive,
    /// One request served by the study service (`crates/service`): its
    /// cache key, how the scheduler classified it at dispatch (hence
    /// identically for every worker count), and its modeled completion.
    ServiceRequest,
    /// One result-cache lookup outcome from the study service's sharded
    /// cache, recorded at batch-dispatch time, or one capacity eviction.
    CacheEvent,
    /// One advection-scenario sweep row (`core::advect`): the scenario's
    /// spec/window fingerprints and the characterized cost of one
    /// (seeding × step-control × termination × flow-mode) cell.
    FlowScenario,
}

/// One row per [`Kind`] variant, in declaration order: the variant, its
/// wire name (the `"ev"` value), and the chrome-trace track its instants
/// land on. 0 marks the kinds whose fields are all numeric: they render
/// as process-level counter samples and need no track.
const KINDS: [(Kind, &str, u32); 9] = [
    (Kind::Counter, "counter", 0),
    (Kind::CapChange, "cap_change", 0),
    (Kind::PolicyDecision, "policy_decision", 0),
    (Kind::Conformance, "conformance", 8),
    (Kind::ConformanceCheck, "conformance_check", 8),
    (Kind::Primitive, "primitive", 10),
    (Kind::ServiceRequest, "service_request", 11),
    (Kind::CacheEvent, "cache_event", 11),
    (Kind::FlowScenario, "flow_scenario", 12),
];

impl Kind {
    /// Lowercase wire name: the `"ev"` value of the record's JSONL line
    /// and its event name in the chrome trace.
    pub(crate) fn name(self) -> &'static str {
        KINDS[self as usize].1
    }

    /// Chrome-trace track id for this kind's instants (`tid` field).
    fn tid(self) -> u32 {
        KINDS[self as usize].2
    }
}

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
    pub(crate) t0: f64,
    /// Journal time at which the span closed (seconds, `>= t0`).
    pub(crate) t1: f64,
    /// Energy attributed to this span, if the emitting layer models
    /// energy. Kernel spans carry exact per-phase attribution; parent
    /// spans carry the rollup (sum) of their children.
    pub joules: Option<Joules>,
    /// Mean power over the span (`joules / (t1 - t0)`), present whenever
    /// `joules` is present and the span has nonzero width.
    pub(crate) watts: Option<Watts>,
    /// Scope-specific numeric annotations (instruction counts, step
    /// indices, ...). Keys are static by construction so the schema
    /// stays enumerable.
    pub args: Vec<(&'static str, f64)>,
}

/// One field value of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number; counts and 48-bit fingerprints are exact in an `f64`.
    /// Non-finite values serialize as `null`.
    Num(f64),
    /// A string (algorithm names, outcomes, check identifiers).
    Str(String),
    /// A flag.
    Bool(bool),
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Num(f64::from(v))
    }
}

impl From<Watts> for Value {
    fn from(v: Watts) -> Value {
        Value::Num(v.value())
    }
}

impl From<Joules> for Value {
    fn from(v: Joules) -> Value {
        Value::Num(v.value())
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// A point in journal time carrying named values: everything the journal
/// records that is not an interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What the record reports.
    pub(crate) kind: Kind,
    /// Journal time of the record (seconds).
    pub t: f64,
    /// The fields, in the order the emitter listed them, which is the
    /// order they serialize in. Keys are static, as in [`Span::args`].
    pub(crate) fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// The value of field `key`, if the record has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The numeric field `key`, if present and a [`Value::Num`].
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(v)) => Some(*v),
            _ => None,
        }
    }

    /// The string field `key`, if present and a [`Value::Str`].
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// One journal entry: an interval or a point.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed interval of attributed work.
    Span(Span),
    /// A point in journal time carrying named values.
    Record(Record),
}

/// Ring-buffered event journal with a logical clock.
///
/// Construct with [`Journal::with_capacity`] to record, or
/// [`Journal::off`] (also [`Default`]) for a disabled journal that
/// ignores every push. See the module docs for the clock and
/// determinism contract.
#[derive(Debug, Clone, Default)]
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

    /// Record an event into a journal that records, evicting the oldest
    /// event when full.
    fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((self.seq, event));
        self.seq += 1;
    }

    /// Record a [`Span`] closing now: `t1` is the current clock, and the
    /// mean power is derived from `joules` when the span has width.
    /// `build` gives the span's name and args; it runs only when the
    /// journal records.
    pub fn push_span(
        &mut self,
        scope: Scope,
        t0: f64,
        joules: Option<Joules>,
        build: impl FnOnce() -> (String, Vec<(&'static str, f64)>),
    ) {
        if self.capacity == 0 {
            return;
        }
        let (name, args) = build();
        let t1 = self.t;
        let width = t1 - t0;
        let watts = match joules {
            Some(j) if width > 0.0 => Some(j.over_seconds(width)),
            _ => None,
        };
        self.push(Event::Span(Span {
            scope,
            name,
            t0,
            t1,
            joules,
            watts,
            args,
        }));
    }

    /// Record a [`Record`] of `kind` at journal time `t`. `fields` builds
    /// the kind's wire layout; it runs only when the journal records.
    pub fn push_record(
        &mut self,
        kind: Kind,
        t: f64,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.push(Event::Record(Record {
            kind,
            t,
            fields: fields(),
        }));
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().map(|(_, e)| e)
    }

    /// The buffered records of one kind, oldest first.
    pub fn records(&self, kind: Kind) -> impl Iterator<Item = &Record> {
        self.events().filter_map(move |e| match e {
            Event::Record(r) if r.kind == kind => Some(r),
            _ => None,
        })
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
    /// events on per-scope tracks; a record whose fields are all numeric
    /// becomes a sample of the counter (`"C"`) track named after its
    /// kind, and any other record a thread-scoped instant (`"i"`) on its
    /// kind's track. Journal seconds are exported as trace microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{SCHEMA_VERSION},\
             \"dropped\":{}}},\"traceEvents\":[",
            self.dropped
        );
        // Name each track once, after the first table row that claims it.
        let tracks = SCOPES.iter().map(|r| (r.1, r.2));
        let mut named = 0u32;
        for (name, tid) in tracks.chain(KINDS.iter().map(|r| (r.1, r.2))) {
            if tid != 0 && named & (1 << tid) == 0 {
                named |= 1 << tid;
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{name}\"}}}},"
                );
            }
        }
        for (_, event) in &self.events {
            write_chrome_event(&mut out, event);
        }
        close(&mut out, "]}\n");
        out
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

// The member writers below each end with a comma, so callers never track
// "first"; `close` swaps the last one for the closing bracket.

/// Write `"key":` (no comma: the value follows).
fn push_key(out: &mut String, key: &str) {
    out.push('"');
    json_escape_into(out, key);
    out.push_str("\":");
}

/// Write `"key":number,`. Rust's `Display` for `f64` is the shortest
/// string that round-trips, which is both deterministic and valid JSON
/// for finite values; non-finite values become `null`.
fn push_num(out: &mut String, key: &str, v: f64) {
    push_key(out, key);
    if v.is_finite() {
        let _ = write!(out, "{v},");
    } else {
        out.push_str("null,");
    }
}

/// Write `"key":"text",`.
fn push_text(out: &mut String, key: &str, text: &str) {
    push_key(out, key);
    out.push('"');
    json_escape_into(out, text);
    out.push_str("\",");
}

/// Write one record field as `"key":value,`.
fn push_field(out: &mut String, key: &str, value: &Value) {
    match value {
        Value::Num(v) => push_num(out, key, *v),
        Value::Str(s) => push_text(out, key, s),
        Value::Bool(b) => {
            push_key(out, key);
            out.push_str(if *b { "true," } else { "false," });
        }
    }
}

/// End an object or array: replace the last member's comma, if there
/// was a member, with `end`.
fn close(out: &mut String, end: &str) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str(end);
}

fn write_jsonl_line(out: &mut String, seq: u64, event: &Event) {
    let _ = write!(out, "{{\"v\":{SCHEMA_VERSION},\"seq\":{seq},");
    match event {
        Event::Span(s) => {
            push_text(out, "ev", "span");
            push_text(out, "scope", s.scope.name());
            push_text(out, "name", &s.name);
            push_num(out, "t0", s.t0);
            push_num(out, "t1", s.t1);
            if let Some(j) = s.joules {
                push_num(out, "joules", j.value());
            }
            if let Some(w) = s.watts {
                push_num(out, "watts", w.value());
            }
            if !s.args.is_empty() {
                out.push_str("\"args\":{");
                for (key, value) in &s.args {
                    push_num(out, key, *value);
                }
                close(out, "},");
            }
        }
        Event::Record(r) => {
            push_text(out, "ev", r.kind.name());
            push_num(out, "t", r.t);
            for (key, value) in &r.fields {
                push_field(out, key, value);
            }
        }
    }
    close(out, "}\n");
}

fn write_chrome_event(out: &mut String, event: &Event) {
    match event {
        Event::Span(s) => {
            out.push_str("{\"ph\":\"X\",");
            push_text(out, "name", &s.name);
            push_text(out, "cat", s.scope.name());
            let _ = write!(out, "\"pid\":1,\"tid\":{},", s.scope.tid());
            push_num(out, "ts", s.t0 * 1e6);
            push_num(out, "dur", (s.t1 - s.t0) * 1e6);
            out.push_str("\"args\":{");
            if let Some(j) = s.joules {
                push_num(out, "joules", j.value());
            }
            if let Some(w) = s.watts {
                push_num(out, "watts", w.value());
            }
            for (key, value) in &s.args {
                push_num(out, key, *value);
            }
        }
        Event::Record(r) => {
            let numeric = r.fields.iter().all(|(_, v)| matches!(v, Value::Num(_)));
            out.push_str(if numeric {
                "{\"ph\":\"C\","
            } else {
                "{\"ph\":\"i\",\"s\":\"t\","
            });
            push_text(out, "name", r.kind.name());
            let _ = write!(out, "\"pid\":1,\"tid\":{},", r.kind.tid());
            push_num(out, "ts", r.t * 1e6);
            out.push_str("\"args\":{");
            for (key, value) in &r.fields {
                push_field(out, key, value);
            }
        }
    }
    close(out, "}},");
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::json;

    /// A record exercising every [`Value`] variant.
    fn mixed_fields() -> Vec<(&'static str, Value)> {
        vec![
            ("algorithm", "Contour".into()),
            ("grid", 32u32.into()),
            ("cap_watts", Watts(80.0).into()),
            ("measured", f64::NAN.into()),
            ("pass", true.into()),
        ]
    }

    #[test]
    fn disabled_journal_ignores_everything() {
        for mut j in [
            Journal::off(),
            Journal::with_capacity(0),
            Journal::default(),
        ] {
            j.push_record(Kind::CapChange, 0.0, || {
                panic!("an off journal built a record")
            });
            j.push_span(Scope::Study, 0.0, None, || {
                panic!("an off journal built a span")
            });
            assert!(j.is_empty());
            assert_eq!(j.dropped(), 0);
            assert_eq!(j.to_jsonl(), "");
            let trace = json::parse(&j.to_chrome_trace()).expect("valid JSON");
            assert_eq!(trace["otherData"]["dropped"], 0);
        }
    }

    #[test]
    fn ring_evicts_oldest_and_preserves_seq() {
        let mut j = Journal::with_capacity(2);
        let mut built = 0;
        for i in 0..4 {
            j.advance(1.0);
            j.push_span(Scope::Kernel, j.now() - 1.0, None, || {
                built += 1;
                (format!("k{i}"), Vec::new())
            });
            assert_eq!(built, i + 1, "each builder runs exactly once");
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 2);
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"seq\":2,"), "{jsonl}");
        assert!(jsonl.contains("\"seq\":3,"), "{jsonl}");
        assert!(!jsonl.contains("\"seq\":0,"), "{jsonl}");
    }

    #[test]
    fn ring_of_one_keeps_exactly_the_last_event() {
        let n = 5u32;
        let mut j = Journal::with_capacity(1);
        let mut built = 0;
        for i in 0..n {
            j.push_record(Kind::Primitive, 0.0, || {
                built += 1;
                vec![("i", i.into())]
            });
            assert_eq!(built, i + 1, "each builder runs exactly once");
        }
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), u64::from(n - 1));
        assert_eq!(
            j.records(Kind::Primitive).next().and_then(|r| r.num("i")),
            Some(4.0)
        );
        let jsonl = j.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"v\":10,\"seq\":4,\"ev\":\"primitive\",\"t\":0,\"i\":4}\n"
        );
        json::parse(jsonl.trim_end()).expect("valid JSON line");
        let trace = json::parse(&j.to_chrome_trace()).expect("valid JSON");
        assert_eq!(trace["otherData"]["dropped"], u64::from(n - 1));
    }

    #[test]
    fn span_derives_mean_power_from_joules() {
        let mut j = Journal::with_capacity(8);
        let t0 = j.now();
        j.advance(2.0);
        j.push_span(Scope::Kernel, t0, Some(Joules(100.0)), || {
            ("c".into(), vec![("phase_index", 0.0)])
        });
        match j.events().next() {
            Some(Event::Span(s)) => {
                assert_eq!(s.t0, 0.0);
                assert_eq!(s.t1, 2.0);
                assert_eq!(s.joules, Some(Joules(100.0)));
                assert_eq!(s.watts, Some(Watts(50.0)));
            }
            other => panic!("unexpected event {other:?}"),
        };
    }

    #[test]
    fn zero_width_span_has_no_watts() {
        let mut j = Journal::with_capacity(8);
        j.push_span(Scope::Study, j.now(), Some(Joules(1.0)), || {
            ("setup".into(), Vec::new())
        });
        match j.events().next() {
            Some(Event::Span(s)) => assert_eq!(s.watts, None),
            other => panic!("unexpected event {other:?}"),
        };
    }

    #[test]
    fn jsonl_shape_is_exact() {
        let mut j = Journal::with_capacity(8);
        j.push_record(Kind::ConformanceCheck, 0.0, mixed_fields);
        j.advance(0.1);
        j.push_span(Scope::Workload, 0.0, Some(Joules(8.55)), || {
            ("contour_64".into(), vec![("phases", 2.0)])
        });
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"v\":10,\"seq\":0,\"ev\":\"conformance_check\",\"t\":0,\"algorithm\":\"Contour\",\
             \"grid\":32,\"cap_watts\":80,\"measured\":null,\"pass\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"v\":10,\"seq\":1,\"ev\":\"span\",\"scope\":\"workload\",\"name\":\"contour_64\",\
             \"t0\":0,\"t1\":0.1,\"joules\":8.55,\"watts\":85.5,\"args\":{\"phases\":2}}"
        );
        let record = j
            .records(Kind::ConformanceCheck)
            .next()
            .expect("one record");
        assert_eq!(record.str("algorithm"), Some("Contour"));
        assert_eq!(record.num("grid"), Some(32.0));
        assert_eq!(record.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(record.num("algorithm"), None);
        assert_eq!(record.str("absent"), None);
        assert_eq!(j.records(Kind::Conformance).count(), 0);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut j = Journal::with_capacity(4);
        j.push_span(Scope::Study, j.now(), None, || {
            ("a\"b\\c\nd".into(), Vec::new())
        });
        j.push_record(Kind::CacheEvent, 0.0, || {
            vec![("outcome", "x\ty\u{1}".into())]
        });
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"name\":\"a\\\"b\\\\c\\nd\""), "{jsonl}");
        assert!(jsonl.contains("\"outcome\":\"x\\ty\\u0001\""), "{jsonl}");
        for line in jsonl.lines() {
            json::parse(line).expect("valid JSON line");
        }
        json::parse(&j.to_chrome_trace()).expect("valid JSON");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut j = Journal::with_capacity(4);
        let fields = vec![
            ("power_watts", Watts(f64::NAN).into()),
            ("ipc", f64::INFINITY.into()),
        ];
        j.push_record(Kind::Counter, 0.0, || fields);
        j.push_span(Scope::Kernel, 0.0, None, || {
            ("k".into(), vec![("dt", f64::NEG_INFINITY)])
        });
        let jsonl = j.to_jsonl();
        assert!(
            jsonl.contains("\"power_watts\":null,\"ipc\":null"),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"args\":{\"dt\":null}"), "{jsonl}");
    }

    #[test]
    fn chrome_trace_has_tracks_and_events() {
        let mut j = Journal::with_capacity(8);
        j.advance(0.5);
        j.push_span(Scope::Timestep, 0.0, None, || {
            ("step:1".into(), vec![("dt", 0.5)])
        });
        j.push_record(Kind::Counter, 0.5, || vec![("ipc", 1.25.into())]);
        j.push_record(Kind::ServiceRequest, 0.5, mixed_fields);
        let trace = j.to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""), "{trace}");
        assert!(trace.contains("\"schema_version\":10"), "{trace}");
        assert!(
            trace.contains("\"ph\":\"X\",\"name\":\"step:1\""),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":500000"), "{trace}");
        // All-numeric records are counter samples; any other record is an
        // instant on its kind's track.
        assert!(
            trace.contains("{\"ph\":\"C\",\"name\":\"counter\",\"pid\":1,\"tid\":0,"),
            "{trace}"
        );
        assert!(
            trace.contains(
                "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"service_request\",\"pid\":1,\"tid\":11,\
                 \"ts\":500000,\"args\":{\"algorithm\":\"Contour\",\"grid\":32,"
            ),
            "{trace}"
        );
        assert!(trace.ends_with("]}\n"), "{trace}");
        // Every track is named exactly once, shared ones after their scope.
        let parsed = json::parse(&trace).expect("valid JSON");
        let names: Vec<(f64, &str)> = (parsed["traceEvents"]
            .as_array()
            .expect("event array")
            .iter())
        .filter(|e| e["ph"] == "M")
        .map(|e| {
            (
                e["tid"].as_f64().unwrap(),
                e["args"]["name"].as_str().unwrap(),
            )
        })
        .collect();
        assert_eq!(names.len(), 11, "{names:?}");
        assert!(names.contains(&(11.0, "service")), "{names:?}");
        assert!(names.contains(&(8.0, "conformance")), "{names:?}");
        assert!(
            names.iter().all(|(tid, _)| *tid != 9.0),
            "tid 9 stays retired: {names:?}"
        );
    }

    #[test]
    fn tables_follow_declaration_order() {
        for (i, row) in SCOPES.iter().enumerate() {
            assert_eq!(row.0 as usize, i, "{row:?}");
            assert_eq!((row.0.name(), row.0.tid()), (row.1, row.2));
        }
        for (i, row) in KINDS.iter().enumerate() {
            assert_eq!(row.0 as usize, i, "{row:?}");
            assert_eq!((row.0.name(), row.0.tid()), (row.1, row.2));
        }
    }

    /// The schema table of `docs/OBSERVABILITY.md` (the rows between the
    /// markers whose first cell is backticked) against [`KINDS`] and
    /// [`SCOPES`]: every variant has a row, every row names a live
    /// variant, and the row's shape and wire-name cells match the table.
    #[test]
    fn schema_table_in_the_docs_matches_the_wire_tables() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let table = doc
            .split_once("<!-- xtask:schema-table:begin -->")
            .and_then(|(_, rest)| rest.split_once("<!-- xtask:schema-table:end -->"))
            .expect("schema table markers in docs/OBSERVABILITY.md")
            .0;
        let documented: Vec<(&str, &str, &str)> = table
            .lines()
            .filter_map(|row| {
                let mut cells = row.trim().strip_prefix('|')?.split('|').map(str::trim);
                let variant = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
                Some((variant, cells.next()?, cells.next()?.trim_matches('`')))
            })
            .collect();
        let kinds = KINDS.iter().map(|r| (format!("{:?}", r.0), "kind", r.1));
        let scopes = SCOPES.iter().map(|r| (format!("{:?}", r.0), "scope", r.1));
        let declared: Vec<(String, &str, &str)> = kinds.chain(scopes).collect();
        for (variant, shape, wire) in &declared {
            assert!(
                documented.contains(&(variant.as_str(), shape, wire)),
                "no `{variant}` | {shape} | `{wire}` row in the schema table"
            );
        }
        for row in &documented {
            assert!(
                declared.iter().any(|d| d.0 == row.0),
                "stale schema row `{}`: no such Kind or Scope variant",
                row.0
            );
        }
    }

    #[test]
    fn clock_advances_only_on_advance() {
        let mut j = Journal::with_capacity(4);
        assert_eq!(j.now(), 0.0);
        j.push_span(Scope::Study, j.now(), None, || ("s".into(), Vec::new()));
        assert_eq!(j.now(), 0.0);
        j.advance(0.25);
        assert_eq!(j.now(), 0.25);
    }
}
