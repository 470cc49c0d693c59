//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names; `--selftest` fails when the two
//! disagree.

use crate::json::Json;

/// How long one run measures (`--seconds`), as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// `(name, why)` — the workloads of `BENCHMARK.json`, whose end-to-end
/// metrics are bounded. Later issues cite the names.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "geom128",
        "power-opportunity class: five memory-bound geometry filters on 128^3, Traditional+DPP, with characterize and nine-cap sweep; no renderer, hydro or service work",
    ),
    (
        "render128",
        "power-sensitive class: particle advection, ray tracing and volume rendering on 128^3; compute-bound kernels, so a geometry-kernel change must leave it flat",
    ),
    (
        "insitu48",
        "the paper's coupling: 60 CloverLeaf steps at 48^3 with a viz cycle every 10; small grids and filters rebuilt per cycle expose per-call and build-time overheads",
    ),
    (
        "serve_cold",
        "fresh study service, 2000 Zipf(1.1) requests over 72 keys: misses, coalescing, batch packing, worker spawn and Engine::execute; no 128^3 kernel work",
    ),
];

/// `(name, host, why)` — workloads that run by name like the others but
/// are not in `BENCHMARK.json`: the run budget there pays for four
/// steady workloads, not six noisy ones. So that their layers keep
/// their numbers, the traced run of `host` traces them too.
pub const RIDERS: [(&str, &str, &str); 2] = [
    (
        "governor32",
        "insitu48",
        "budget sweep at 32^3 with a live 1M-event journal plus JSONL export: the only workload where powersim stepping and journal cost are the hot layer",
    ),
    (
        "serve_hot",
        "serve_cold",
        "same traffic replayed 100x on the warm service (200000 hits): validate, admit, key fingerprinting and cache lookup only",
    ),
];

/// Reported on every workload by the untraced run.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pass_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Reported on every workload by the traced run; a layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    // vizalgo — geometry filters (geom128; contour/threshold/slice also inside insitu48)
    lo("vizalgo.contour.exec_s", "s"),
    lo("vizalgo.threshold.exec_s", "s"),
    lo("vizalgo.clip.exec_s", "s"),
    lo("vizalgo.isovolume.exec_s", "s"),
    lo("vizalgo.slice.exec_s", "s"),
    lo("vizalgo.dpp.contour.exec_s", "s"),
    lo("vizalgo.dpp.threshold.exec_s", "s"),
    lo("vizalgo.dpp.isovolume.exec_s", "s"),
    lo("vizalgo.dpp.slice.exec_s", "s"),
    lo("vizalgo.spec.build_s", "s"),
    lo("vizalgo.contour.scale_exp", "ratio"),
    lo("vizalgo.threshold.scale_exp", "ratio"),
    lo("vizalgo.clip.scale_exp", "ratio"),
    lo("vizalgo.isovolume.scale_exp", "ratio"),
    lo("vizalgo.geom.out_cells", "count"),
    lo("vizalgo.geom.bytes_per_cell", "B"),
    hi("vizalgo.geom.flops_per_byte", "flop/B"),
    // vizalgo — renderers and advection (render128; raytrace also inside insitu48)
    lo("vizalgo.advection.exec_s", "s"),
    lo("vizalgo.raytrace.exec_s", "s"),
    lo("vizalgo.volren.exec_s", "s"),
    hi("vizalgo.raytrace.rays_per_s", "1/s"),
    hi("vizalgo.volren.samples_per_s", "1/s"),
    hi("vizalgo.advection.steps_per_s", "1/s"),
    // core + powersim — dataset construction, characterize, sweep, report
    lo("core.store.solve_s", "s"),
    lo("core.study.upsample_s", "s"),
    lo("core.characterize_s", "s"),
    lo("powersim.sweep9_s", "s"),
    lo("core.report_s", "s"),
    lo("core.wall_over_sim.contour", "ratio"),
    lo("core.wall_over_sim.threshold", "ratio"),
    lo("core.wall_over_sim.clip", "ratio"),
    lo("core.wall_over_sim.isovolume", "ratio"),
    lo("core.wall_over_sim.slice", "ratio"),
    lo("core.wall_over_sim.advection", "ratio"),
    lo("core.wall_over_sim.raytrace", "ratio"),
    lo("core.wall_over_sim.volren", "ratio"),
    lo("powersim.sim_s_at_120w", "s"),
    lo("powersim.sim_j_at_120w", "J"),
    // cloverleaf + insitu (insitu48)
    lo("cloverleaf.step_s", "s"),
    hi("cloverleaf.cell_steps_per_s", "1/s"),
    lo("cloverleaf.dataset_s", "s"),
    lo("cloverleaf.steps", "count"),
    lo("insitu.viz_cycle_s", "s"),
    lo("insitu.cycles", "count"),
    lo("insitu.self_s", "s"),
    // governor + powersim stepping + journal (governor32)
    lo("governor.coupled_pair_s", "s"),
    lo("governor.sweep_pair_s", "s"),
    lo("governor.govern_s", "s"),
    lo("governor.decisions", "count"),
    hi("powersim.sim_s_per_host_s", "ratio"),
    lo("powersim.trace.events", "count"),
    lo("powersim.trace.dropped", "count"),
    lo("powersim.trace.jsonl_s", "s"),
    lo("powersim.trace.chrome_s", "s"),
    lo("governor.journal_overhead_rel", "ratio"),
    // service (serve_cold, serve_hot)
    lo("service.serve_s", "s"),
    lo("service.engine.native_s", "s"),
    lo("service.engine.execute_s", "s"),
    lo("service.self_s", "s"),
    hi("service.hits", "count"),
    lo("service.misses", "count"),
    hi("service.coalesced", "count"),
    lo("service.evictions", "count"),
    lo("service.batches", "count"),
    lo("service.result_bytes", "B"),
    lo("service.cold_paper_s", "s"),
    lo("service.hot_req_ns", "ns"),
    lo("service.key.new_ns", "ns"),
    lo("service.admission.admit_ns", "ns"),
    lo("service.cache.hit_ns", "ns"),
    lo("service.journal_overhead_rel", "ratio"),
    // every workload
    lo("proc.cpu_user_s", "s"),
    lo("proc.cpu_sys_s", "s"),
    lo("bench.cold_pass_s", "s"),
    lo("bench.pass_iqr_rel", "ratio"),
    hi("bench.passes", "count"),
    lo("bench.trace_overhead_rel", "ratio"),
];

/// Per-layer values the program computes rather than the clock: they
/// repeat exactly from run to run (same seed), and a change that only
/// makes the code faster must leave them identical.
pub const EXACT_COUNTS: [&str; 12] = [
    "vizalgo.geom.out_cells",
    "powersim.sim_s_at_120w",
    "powersim.sim_j_at_120w",
    "cloverleaf.steps",
    "insitu.cycles",
    "governor.decisions",
    "powersim.trace.events",
    "powersim.trace.dropped",
    "service.misses",
    "service.evictions",
    "service.batches",
    "service.result_bytes",
];

/// Every name `--workload` takes: the bounded four, then the riders.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .chain(RIDERS.iter().map(|(r, _, _)| *r))
}

pub fn is_workload(name: &str) -> bool {
    workload_names().any(|w| w == name)
}

/// The riders the traced run of `host` also traces.
pub fn riders_of(host: &str) -> impl Iterator<Item = &'static str> + '_ {
    RIDERS
        .iter()
        .filter(move |(_, h, _)| *h == host)
        .map(|(r, _, _)| *r)
}

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift (`run.sh contract > BENCHMARK.json`).
pub fn contract() -> Json {
    let metric = |m: &Metric, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmarks/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmarks")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
