//! The full result set (every workload, several seeds, untraced and
//! traced) and the comparison of two such sets against the bounds.
//!
//! Each run is a child process of this binary, so every run's peak
//! memory and cold start are its own.

use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::runner;
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub runs: usize,
    pub seed: u64,
    pub seconds: u64,
    pub out: Option<String>,
}

/// One child run; returns its contract line, parsed.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| {
        format!(
            "run of {workload} printed nothing (status {})",
            output.status
        )
    })?;
    Json::parse(last).map_err(|e| format!("run of {workload} printed a bad result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn summarize(metric: &Metric, values: &[f64], with_bound: bool) -> Json {
    let s = Summary::of(values);
    let mut pairs = vec![
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.as_str())),
    ];
    if with_bound {
        pairs.push(("bound", Json::Num(metric.bound)));
    }
    pairs.extend([
        ("n", Json::Num(s.n as f64)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("spread", Json::Num(s.spread())),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ]);
    Json::obj(pairs)
}

/// Run every workload `runs` times untraced (seeds `seed..seed+runs`)
/// and up to three times traced; print and optionally save the set.
/// Returns whether every run was correct.
pub fn run(opts: &SuiteOptions) -> Result<bool, String> {
    let traced_runs = opts.runs.min(3);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut gather =
            |metrics: &[Metric], trace: bool, runs: usize| -> Result<Vec<Vec<f64>>, String> {
                let mut values = vec![Vec::new(); metrics.len()];
                for r in 0..runs {
                    let seed = opts.seed + r as u64;
                    eprintln!(
                        "suite: {workload} seed {seed} {}",
                        if trace { "traced" } else { "untraced" }
                    );
                    let result = child(workload, seed, opts.seconds, trace)?;
                    all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    attempted += result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    for (slot, m) in values.iter_mut().zip(metrics) {
                        slot.push(
                            metric_value(&result, m.name).ok_or_else(|| {
                                format!("run of {workload} reported no {}", m.name)
                            })?,
                        );
                    }
                }
                Ok(values)
            };
        let e2e = gather(&END_TO_END, false, opts.runs)?;
        let layers = gather(PER_LAYER, true, traced_runs)?;
        let fail_ratio = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        workloads.push((
            workload.to_string(),
            Json::obj(vec![
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("fail_ratio", Json::Num(fail_ratio)),
                (
                    "end_to_end",
                    Json::Obj(
                        END_TO_END
                            .iter()
                            .zip(&e2e)
                            .map(|(m, v)| (m.name.to_string(), summarize(m, v, true)))
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    Json::Obj(
                        PER_LAYER
                            .iter()
                            .zip(&layers)
                            .map(|(m, v)| (m.name.to_string(), summarize(m, v, false)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let mut doc = vec![("schema", Json::Num(1.0))];
    doc.extend(runner::stamp());
    doc.extend([
        ("run_seconds", Json::Num(opts.seconds as f64)),
        ("runs", Json::Num(opts.runs as f64)),
        ("traced_runs", Json::Num(traced_runs as f64)),
        ("first_seed", Json::Num(opts.seed as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = Json::obj(doc).pretty();
    if let Some(path) = &opts.out {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{text}");
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regressed,
}

/// Judge one end-to-end metric of one workload. `worse` is the share of
/// the old median by which the new median is worse (negative = better).
pub fn judge(better: Better, bound: f64, old: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (o, n) = (Summary::of(old), Summary::of(new));
    let worse = match better {
        Better::Lower => (n.median - o.median) / o.median.abs(),
        Better::Higher => (o.median - n.median) / o.median.abs(),
    };
    let new_better_than_old = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let every_new_beats_every_old = !old.is_empty()
        && !new.is_empty()
        && new
            .iter()
            .all(|&a| old.iter().all(|&b| new_better_than_old(a, b)));
    let verdict = if every_new_beats_every_old {
        Verdict::Improved
    } else if o.spread() > bound || n.spread() > bound {
        // The run-to-run spread is wider than the bound: the bound
        // cannot be applied either way.
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn values_of(set: &Json, workload: &str, group: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A result set's per-layer medians as a markdown table: one row per
/// metric, one column per workload.
pub fn table(path: &str) -> Result<(), String> {
    let set = load(path)?;
    let stamp = |key: &str| set.get(key).map_or("?".into(), Json::render);
    println!(
        "Per-layer metrics: median of {} traced runs per workload; build_mode {}, {}, nproc {}, threads {}.",
        stamp("traced_runs"),
        stamp("build_mode"),
        stamp("rustc"),
        stamp("nproc"),
        stamp("threads")
    );
    println!("A layer a workload never calls reads 0.\n");
    let names = WORKLOADS.map(|(w, _)| w);
    println!("| metric | unit | {} |", names.join(" | "));
    println!("|---|---|{}", "---:|".repeat(names.len()));
    for m in PER_LAYER {
        let cells: Vec<String> = names
            .iter()
            .map(|w| match values_of(&set, w, "per_layer", m.name) {
                Some(v) => {
                    let x = Summary::of(&v).median;
                    if x == 0.0 {
                        "0".into()
                    } else if (1e-3..1e6).contains(&x.abs()) {
                        format!("{x:.4}")
                    } else {
                        format!("{x:.3e}")
                    }
                }
                None => "-".into(),
            })
            .collect();
        println!("| `{}` | {} | {} |", m.name, m.unit, cells.join(" | "));
    }
    Ok(())
}

/// Compare two result sets. `Ok(true)` when nothing regressed:
/// unresolved metrics are reported but do not fail the comparison; a
/// resolved regression or a higher `fail_ratio` does.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    for key in ["build_mode", "rustc", "nproc", "threads", "run_seconds"] {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            println!(
                "note: {key} differs: {} vs {}",
                a.map_or("-".into(), Json::render),
                b.map_or("-".into(), Json::render)
            );
        }
    }
    let mut pass = true;
    println!(
        "{:<11} {:<12} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "old median", "new median", "worse", "old iqr", "new iqr", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (Some(o), Some(n)) = (
                values_of(&old, workload, "end_to_end", m.name),
                values_of(&new, workload, "end_to_end", m.name),
            ) else {
                println!("{workload:<11} {:<12} missing from one side", m.name);
                pass = false;
                continue;
            };
            let (verdict, worse) = judge(m.better, m.bound, &o, &n);
            let (so, sn) = (Summary::of(&o), Summary::of(&n));
            println!(
                "{workload:<11} {:<12} {:>13.6} {:>13.6} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {}",
                m.name,
                so.median,
                sn.median,
                worse * 100.0,
                so.spread() * 100.0,
                sn.spread() * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
            pass &= verdict != Verdict::Regressed;
        }
        let ratio = |set: &Json| {
            set.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("fail_ratio"))
                .and_then(Json::as_f64)
        };
        match (ratio(&old), ratio(&new)) {
            (Some(a), Some(b)) if b > a => {
                println!("{workload:<11} fail_ratio   {a} -> {b}  REGRESSED");
                pass = false;
            }
            (Some(_), Some(_)) => {}
            _ => {
                println!("{workload:<11} fail_ratio   missing from one side");
                pass = false;
            }
        }
        // Counts the program makes repeat exactly; a pure speed-up must
        // leave them identical, so a change is worth a line.
        for name in EXACT_COUNTS {
            let med = |set: &Json| {
                values_of(set, workload, "per_layer", name).map(|v| Summary::of(&v).median)
            };
            if let (Some(a), Some(b)) = (med(&old), med(&new)) {
                if a != b {
                    println!("{workload:<11} {name:<28} count changed: {a} -> {b}");
                }
            }
        }
    }
    println!(
        "{}",
        if pass {
            "compare: ok"
        } else {
            "compare: FAILED"
        }
    );
    Ok(pass)
}
