//! One run of one workload: start-up checks, set-up, a discarded cold
//! pass, then timed passes — or, for the traced run, a few untraced and
//! a few recorded passes plus the layer probes.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::procinfo;
use crate::stats::{self, Summary};
use crate::workloads::{self, Ctx, Layers, Scale, Workload};

/// Timed passes per run: at least this many however long they take …
const MIN_PASSES: usize = 5;
/// … and at most this many however short.
const MAX_PASSES: usize = 200;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untraced and recorded passes of the traced run.
const TRACE_PASSES: usize = 3;

pub const BUILD_MODE: &str = match option_env!("BENCH_BUILD_MODE") {
    Some(mode) => mode,
    None => "unknown",
};
pub const RUSTC_VERSION: &str = match option_env!("BENCH_RUSTC_VERSION") {
    Some(v) => v,
    None => "unknown",
};

/// Kernel threads (where the build has real ones) and service workers.
pub fn threads() -> usize {
    procinfo::nproc().min(4)
}

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// or every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    /// Per-run context for people: pass quartiles, build stamp.
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::str(unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

pub fn stamp() -> Vec<(&'static str, Json)> {
    vec![
        ("build_mode", Json::str(BUILD_MODE)),
        ("rustc", Json::str(RUSTC_VERSION)),
        ("nproc", Json::Num(procinfo::nproc() as f64)),
        ("threads", Json::Num(threads() as f64)),
    ]
}

fn summary_json(values: &[f64]) -> Json {
    let s = Summary::of(values);
    let mut pairs = vec![
        ("n", Json::Num(s.n as f64)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
    ];
    // A tail percentile only where ten samples lie beyond it.
    let tail = stats::high_percentile(values);
    if let Some((p, v)) = tail {
        pairs.push(("tail_percentile", Json::Num(p)));
        pairs.push(("tail", Json::Num(v)));
    }
    pairs.push((
        "samples",
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
    ));
    Json::obj(pairs)
}

/// The quick conformance suites (analytic oracles, then Traditional-vs-DPP
/// differential): every check counts as one attempted operation.
fn startup_checks(cx: &mut Ctx) {
    let cfg = conformance::ConformanceConfig::quick();
    let oracle = conformance::run_all(&cfg);
    let backend = conformance::backend::run_journaled(&cfg, &mut powersim::trace::Journal::off());
    for c in oracle.checks.iter().chain(&backend.checks) {
        cx.check(c.pass(), || format!("conformance check failed: {c:?}"));
    }
}

/// One checked pass; returns its lap times, which add up to the pass.
fn timed_pass(
    workload: &mut dyn Workload,
    cx: &mut Ctx,
    reference: &mut Option<u64>,
    traced: bool,
) -> Vec<f64> {
    cx.counts.clear();
    cx.start_laps();
    let fp = if traced {
        workload.traced_pass(cx)
    } else {
        workload.pass(cx)
    };
    cx.lap();
    let laps = std::mem::take(&mut cx.laps);
    let expected = *reference.get_or_insert(fp);
    cx.check(fp == expected, || {
        format!("pass fingerprint {fp:012x} differs from the first pass's {expected:012x}")
    });
    laps
}

fn pass_seconds(
    workload: &mut dyn Workload,
    cx: &mut Ctx,
    reference: &mut Option<u64>,
    traced: bool,
) -> f64 {
    timed_pass(workload, cx, reference, traced).iter().sum()
}

pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    if !metrics::is_workload(&opts.workload) {
        return Err(format!(
            "unknown workload '{}' (one of: {})",
            opts.workload,
            metrics::workload_names().collect::<Vec<_>>().join(", ")
        ));
    }
    let mut cx = Ctx::new(threads());
    startup_checks(&mut cx);
    if opts.trace {
        run_traced(opts, cx)
    } else {
        run_untraced(opts, cx)
    }
}

fn build(workload: &str, opts: &RunOptions, cx: &mut Ctx) -> Box<dyn Workload> {
    workloads::setup(workload, opts.scale, opts.seed, cx)
        .expect("workload name was validated against the tables in metrics")
}

fn run_untraced(opts: &RunOptions, mut cx: Ctx) -> Result<RunResult, String> {
    let smoke = opts.scale == Scale::Smoke;
    // Set-up is timed to the end of the discarded cold pass, so state a
    // layer initialises lazily on first use counts as set-up too. The
    // previous instance is dropped first: two live copies would double
    // the peak memory the run reports.
    let mut reference = None;
    let mut setup_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..if smoke { 1 } else { SETUP_REPEATS } {
        drop(workload.take());
        let t = Instant::now();
        let mut w = build(&opts.workload, opts, &mut cx);
        cold_s.push(pass_seconds(w.as_mut(), &mut cx, &mut reference, false));
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up ran");

    let (min_passes, max_passes) = if smoke {
        (1, 1)
    } else {
        (MIN_PASSES, MAX_PASSES)
    };
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    while passes.len() < max_passes
        && (passes.len() < min_passes || started.elapsed().as_secs_f64() < opts.seconds)
    {
        passes.push(timed_pass(
            workload.as_mut(),
            &mut cx,
            &mut reference,
            false,
        ));
    }

    // Lap by lap the fastest, not the median pass: on a shared machine
    // other tenants only ever add time, in bursts of a fraction of a
    // second to a few seconds. A whole pass rarely escapes them, a lap
    // of a few tenths of a second does in some pass of the run, and the
    // median follows how much of it the run happened to meet. The detail
    // line keeps the whole passes' median, quartiles and tail.
    let pass_s = stats::undisturbed_pass(&passes);
    cx.check(pass_s.is_some(), || {
        "passes of one run differ in their number of laps".into()
    });
    let pass_s = pass_s.unwrap_or(f64::NAN);
    let values = [
        stats::median(&setup_s),
        pass_s,
        workload.work_units() / pass_s,
        procinfo::peak_rss_mb(),
    ];
    for (m, v) in END_TO_END.iter().zip(values) {
        cx.check(v.is_finite() && v > 0.0, || {
            format!("{} measured as {v}", m.name)
        });
    }
    let whole: Vec<f64> = passes.iter().map(|laps| laps.iter().sum()).collect();
    let mut detail = stamp();
    detail.extend([
        ("workload", Json::str(opts.workload.as_str())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(false)),
        ("setup_s", summary_json(&setup_s)),
        ("cold_pass_s", summary_json(&cold_s)),
        ("pass_s", summary_json(&whole)),
        (
            "laps",
            Json::Arr(
                passes
                    .iter()
                    .map(|laps| Json::Arr(laps.iter().map(|&v| Json::Num(v)).collect()))
                    .collect(),
            ),
        ),
        (
            "fail_ratio",
            Json::Num(cx.failed as f64 / cx.attempted.max(1) as f64),
        ),
    ]);
    Ok(RunResult {
        attempted: cx.attempted,
        failed: cx.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        failures: cx.failures,
        detail: Json::obj(detail),
    })
}

/// Fold one recorded pass into the layer samples: span totals become
/// `<span>_s`, counts keep their name, the workload derives the rest.
/// Set-up (pass 0) has spans only, so no workload is passed for it.
fn collect_pass(workload: Option<&dyn Workload>, cx: &Ctx, pass: u32, layers: &mut Layers) {
    let totals = cx.rec.totals_for_pass(pass);
    for m in PER_LAYER {
        let from_span = m
            .name
            .strip_suffix("_s")
            .and_then(|span| totals.get(span).copied());
        if let Some(v) = from_span.or_else(|| cx.counts.get(m.name).copied()) {
            layers.entry(m.name).or_default().push(v);
        }
    }
    if let Some(workload) = workload {
        workload.derive(&totals, cx, layers);
    }
}

/// Pass times of one traced workload, beside its layer samples.
struct TracedPasses {
    cold_s: f64,
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

/// Set-up with the recorder on, a cold pass, a few untraced and a few
/// recorded passes, then the workload's own layer probes.
fn trace_workload(name: &str, opts: &RunOptions, cx: &mut Ctx) -> (Layers, TracedPasses) {
    let passes = if opts.scale == Scale::Smoke {
        1
    } else {
        TRACE_PASSES
    };
    let mut layers = Layers::new();
    let mut reference = None;

    // Set-up, recorded as a pass of its own.
    let setup_pass = cx.rec.next_pass();
    cx.rec.set_enabled(true);
    let mut workload = build(name, opts, cx);
    cx.rec.set_enabled(false);
    collect_pass(None, cx, setup_pass, &mut layers);

    let cold_s = pass_seconds(workload.as_mut(), cx, &mut reference, false);
    let untraced: Vec<f64> = (0..passes)
        .map(|_| pass_seconds(workload.as_mut(), cx, &mut reference, false))
        .collect();
    let mut traced = Vec::new();
    for _ in 0..passes {
        let pass = cx.rec.next_pass();
        cx.rec.set_enabled(true);
        traced.push(pass_seconds(workload.as_mut(), cx, &mut reference, true));
        cx.rec.set_enabled(false);
        collect_pass(Some(workload.as_ref()), cx, pass, &mut layers);
    }
    cx.rec.next_pass();
    cx.rec.set_enabled(true);
    workload.trace_extras(cx, stats::min(&untraced), &mut layers);
    cx.rec.set_enabled(false);
    (
        layers,
        TracedPasses {
            cold_s,
            untraced,
            traced,
        },
    )
}

fn run_traced(opts: &RunOptions, mut cx: Ctx) -> Result<RunResult, String> {
    let (mut layers, passes) = trace_workload(&opts.workload, opts, &mut cx);
    let TracedPasses {
        cold_s,
        untraced,
        traced,
    } = passes;
    let untraced_floor = stats::min(&untraced);

    let (user_s, sys_s) = procinfo::cpu_seconds();
    let mut set = |name: &'static str, v: f64| layers.insert(name, vec![v]);
    set("proc.cpu_user_s", user_s);
    set("proc.cpu_sys_s", sys_s);
    set("bench.cold_pass_s", cold_s);
    set("bench.pass_iqr_rel", Summary::of(&untraced).spread());
    set("bench.passes", (untraced.len() + traced.len()) as f64);
    // insitu48's traced pass is the harness's own replay of the loop,
    // so there this also holds what the replay saves or adds.
    set(
        "bench.trace_overhead_rel",
        (stats::min(&traced) - untraced_floor) / untraced_floor,
    );

    // Layers that no bounded workload makes hot are traced as riders of
    // the one nearest to them. A rider only fills in what its host left
    // empty: where both call a layer, the host's numbers stand.
    for rider in metrics::riders_of(&opts.workload) {
        let (rider_layers, _) = trace_workload(rider, opts, &mut cx);
        for (name, values) in rider_layers {
            layers.entry(name).or_insert(values);
        }
    }

    if let Some(dir) = std::env::var_os("BENCH_OUT_DIR") {
        let path = std::path::Path::new(&dir).join(format!("trace-{}.json", opts.workload));
        std::fs::write(&path, cx.rec.to_chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("chrome trace: {}", path.display());
    }
    eprintln!(
        "{:<28} {:>6} {:>12} {:>12}",
        "span", "calls", "total s", "self s"
    );
    for (name, calls, total, own) in cx.rec.rollup() {
        eprintln!("{name:<28} {calls:>6} {total:>12.6} {own:>12.6}");
    }

    let mut detail = stamp();
    detail.extend([
        ("workload", Json::str(opts.workload.as_str())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(true)),
        ("untraced_pass_s", summary_json(&untraced)),
        ("traced_pass_s", summary_json(&traced)),
        ("spans", Json::Num(cx.rec.spans().len() as f64)),
    ]);
    Ok(RunResult {
        attempted: cx.attempted,
        failed: cx.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let v = layers.get(m.name).map_or(0.0, |v| stats::median(v));
                (m.name, v, m.unit)
            })
            .collect(),
        failures: cx.failures,
        detail: Json::obj(detail),
    })
}
