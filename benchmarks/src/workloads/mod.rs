//! The workloads. Each one builds its inputs from the seed in `setup`,
//! then runs identical closed-loop passes, cut into laps; the runner
//! owns timing, repetition and reporting.

use std::collections::BTreeMap;
use std::time::Instant;

use vizalgo::Fnv1a;
use vizmesh::{Image, WorkCounters};

use crate::spans::Recorder;

mod governor;
mod insitu;
mod kernels;
mod serve;

/// Full-size workloads, or the shrunken `--selftest` smoke versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Samples per per-layer metric name, filled by the traced run.
pub type Layers = BTreeMap<&'static str, Vec<f64>>;

/// What a workload writes into while it runs: spans, lap times and
/// named counts of the current pass, and correctness checks.
pub struct Ctx {
    pub rec: Recorder,
    /// Seconds per lap of the current pass (the runner clears them
    /// before each pass and closes the last lap after it).
    pub laps: Vec<f64>,
    lap_started: Instant,
    /// Named values of the current pass (the runner clears them before
    /// each pass). Names listed in `metrics::PER_LAYER` are reported as
    /// they are; the rest feed `Workload::derive`.
    pub counts: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human-readable output.
    pub failures: Vec<String>,
    /// `min(nproc, 4)`: service workers, and kernel threads where the
    /// build has real threads.
    pub threads: usize,
}

impl Ctx {
    pub fn new(threads: usize) -> Ctx {
        Ctx {
            rec: Recorder::new(),
            laps: Vec::new(),
            lap_started: Instant::now(),
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            threads,
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Start a pass: no laps yet, the first one begins now.
    pub fn start_laps(&mut self) {
        self.laps.clear();
        self.lap_started = Instant::now();
    }

    /// End the current lap and begin the next. A workload calls this
    /// after each call into a layer that is long enough to time on its
    /// own; the same calls in the same order every pass.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps
            .push(now.duration_since(self.lap_started).as_secs_f64());
        self.lap_started = now;
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload {
    /// One closed-loop pass over the workload's inputs, with a
    /// `cx.lap()` after each long call. Returns a fingerprint of
    /// everything the program produced; every pass of a run must
    /// reproduce the first one's.
    fn pass(&mut self, cx: &mut Ctx) -> u64;

    /// The fixed numerator of `work_per_s` (its meaning is per workload;
    /// see the README).
    fn work_units(&self) -> f64;

    /// The pass the traced run records. Differs from `pass` only where
    /// `pass` is a single call into a layer that the harness must
    /// re-drive step by step to see inside (insitu48).
    fn traced_pass(&mut self, cx: &mut Ctx) -> u64 {
        self.pass(cx)
    }

    /// Per-layer values computed from one traced pass's span totals and
    /// counts (rates, ratios).
    fn derive(&self, _totals: &BTreeMap<&'static str, f64>, _cx: &Ctx, _layers: &mut Layers) {}

    /// Layer measurements that need calls the pass itself never makes;
    /// only the traced run pays for them. `untraced_pass_s` is the
    /// fastest untraced pass of the same run.
    fn trace_extras(&mut self, _cx: &mut Ctx, _untraced_pass_s: f64, _layers: &mut Layers) {}
}

/// Build a workload's inputs. `None` for an unknown name.
pub fn setup(name: &str, scale: Scale, seed: u64, cx: &mut Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "geom128" => Box::new(kernels::KernelSweep::geometry(scale, cx)),
        "render128" => Box::new(kernels::KernelSweep::rendering(scale, seed, cx)),
        "insitu48" => Box::new(insitu::InSitu::new(scale)),
        "governor32" => Box::new(governor::Governor::new(scale)),
        "serve_cold" => Box::new(serve::Serve::new(scale, seed, false, cx)),
        "serve_hot" => Box::new(serve::Serve::new(scale, seed, true, cx)),
        _ => return None,
    })
}

fn hash_work(h: &mut Fnv1a, w: &WorkCounters) {
    for v in [
        w.items,
        w.instructions,
        w.flops,
        w.bytes_read,
        w.bytes_written,
        w.working_set_bytes,
    ] {
        h.update_u64(v);
    }
}

/// Size plus a sparse pixel sample: enough to notice a changed image
/// without re-reading every pixel inside the timed pass.
fn hash_image(h: &mut Fnv1a, img: &Image) {
    h.update_u64(img.width() as u64);
    h.update_u64(img.height() as u64);
    for i in (0..img.num_pixels()).step_by(97) {
        for c in img.get(i % img.width(), i / img.width()) {
            h.update_u64(c.to_bits() as u64);
        }
    }
}
