//! In-memory wall-clock span recorder for the traced run.
//!
//! Spans are opened and closed by the harness around each call into a
//! layer; nothing inside the program is instrumented. A span records
//! name, start, end, the span that was open when it started (its
//! parent) and the pass it belongs to. Everything stays in memory until
//! the run ends, then goes out as chrome-trace JSON. When the recorder
//! is off, `open`/`close` cost one branch and take no clock reading, so
//! the untraced and traced passes run the same workload code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Recorder::open`]; pass it back to `close`.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

const OFF: usize = usize::MAX;

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tag the spans that follow with a new pass id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(OFF);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == OFF {
            return;
        }
        let end_ns = self.now_ns();
        // Spans close in LIFO order; anything left above `open` was
        // abandoned by an early return and ends here too.
        while let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = end_ns;
            if id == open.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of it covered by
    /// its direct children (children of one parent never overlap here:
    /// the recorder is single-threaded).
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// Inclusive seconds per span name within one pass.
    pub fn totals_for_pass(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.pass == pass) {
            *totals.entry(s.name).or_insert(0.0) += s.seconds();
        }
        totals
    }

    /// `(name, calls, inclusive s, self s)` over every recorded span,
    /// largest self time first.
    pub fn rollup(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_seconds();
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.seconds();
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total, own))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Chrome-trace ("Trace Event Format") rendering: one complete
    /// event per span, timestamps in microseconds, parent/pass/self
    /// time in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let own = self.self_seconds();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("pass", Json::Num(s.pass as f64)),
                            ("self_us", Json::Num(own[id] * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))]).render()
    }

    /// Selftest hook: a finished span with explicit times.
    pub fn push_raw(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: self.pass,
        });
        self.spans.len() - 1
    }
}
