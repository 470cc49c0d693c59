//! `--selftest`: unit checks of the harness's own arithmetic, the
//! agreement between `metrics.rs` and `BENCHMARK.json`, and a shrunken
//! smoke run of every workload, riders too (16³ grids, 200 requests, one pass).

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::runner::{self, RunOptions};
use crate::spans::Recorder;
use crate::stats::{high_percentile, median, quartiles, undisturbed_pass, Summary};
use crate::suite::{judge, Verdict};
use crate::workloads::Scale;

struct Checks {
    run: usize,
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.run += 1;
        if ok {
            println!("ok    {what}");
        } else {
            self.failed += 1;
            println!("FAIL  {what}");
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

fn stats_checks(c: &mut Checks) {
    c.check(median(&[3.0, 1.0, 2.0]) == 2.0, "median of an odd count");
    c.check(
        median(&[4.0, 1.0, 3.0, 2.0]) == 2.5,
        "median of an even count",
    );
    // Reference values from Python's statistics.quantiles(v, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    c.check(
        quartiles(&ten) == Some([2.75, 5.5, 8.25]),
        "quartiles of 1..10 match statistics.quantiles",
    );
    c.check(
        quartiles(&[2.0, 1.0]) == Some([0.75, 1.5, 2.25]),
        "quartiles of two samples extrapolate as statistics.quantiles does",
    );
    c.check(
        quartiles(&[1.0, 2.0, 3.0]) == Some([1.0, 2.0, 3.0]),
        "quartiles of three samples",
    );
    c.check(quartiles(&[1.0]).is_none(), "no quartiles from one sample");
    c.check(close(Summary::of(&ten).spread(), 1.0), "iqr over median");
    c.check(
        high_percentile(&ten).is_none(),
        "no tail percentile below twenty samples",
    );
    c.check(
        undisturbed_pass(&[vec![1.0, 5.0], vec![3.0, 2.0]]) == Some(3.0),
        "undisturbed pass = sum of the laps' fastest times",
    );
    c.check(
        undisturbed_pass(&[vec![1.0, 5.0], vec![3.0]]).is_none() && undisturbed_pass(&[]).is_none(),
        "no undisturbed pass from no passes or ragged laps",
    );
    let forty: Vec<f64> = (1..=40).map(f64::from).collect();
    c.check(
        high_percentile(&forty) == Some((75.0, 30.0)),
        "tail percentile leaves ten samples beyond it",
    );
}

fn span_checks(c: &mut Checks) {
    let mut rec = Recorder::new();
    let parent = rec.push_raw("parent", 0, 100, None);
    let child = rec.push_raw("child", 10, 30, Some(parent));
    rec.push_raw("child", 40, 90, Some(parent));
    rec.push_raw("grandchild", 12, 20, Some(child));
    let own = rec.self_seconds();
    c.check(
        close(own[0], 30e-9),
        "self time = span minus its direct children",
    );
    c.check(
        close(own[1], 12e-9),
        "a child's self time excludes the grandchild",
    );
    let totals = rec.totals_for_pass(0);
    c.check(
        close(totals["child"], 70e-9),
        "inclusive totals sum spans of one name",
    );

    let mut live = Recorder::new();
    live.set_enabled(true);
    let outer = live.open("outer");
    live.span("inner", || std::hint::black_box(1 + 1));
    live.close(outer);
    let spans = live.spans();
    c.check(
        spans.len() == 2 && spans[1].parent == Some(0) && spans[0].parent.is_none(),
        "open/close records the parent",
    );
    c.check(
        spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns,
        "a child lies inside its parent",
    );
    let trace = Json::parse(&live.to_chrome_trace());
    let events = trace
        .as_ref()
        .ok()
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_arr)
        .map_or(0, |a| a.len());
    c.check(
        events == 2,
        "chrome trace parses back with one event per span",
    );

    let mut off = Recorder::new();
    off.span("ignored", || ());
    c.check(
        off.spans().is_empty(),
        "a disabled recorder records nothing",
    );
}

fn json_checks(c: &mut Checks) {
    let doc = Json::obj(vec![
        ("name", Json::str("a \"quoted\"\\ line\n")),
        ("value", Json::Num(0.1 + 0.2)),
        ("tiny", Json::Num(1.25e-9)),
        ("count", Json::Num(200000.0)),
        ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ("empty", Json::Obj(Vec::new())),
    ]);
    c.check(
        Json::parse(&doc.render()).as_ref() == Ok(&doc),
        "compact JSON round-trips, floats bit for bit",
    );
    c.check(
        Json::parse(&doc.pretty()).as_ref() == Ok(&doc),
        "pretty JSON round-trips",
    );
    c.check(
        Json::parse("{\"a\": 1,}").is_err(),
        "a trailing comma is rejected",
    );
    c.check(
        Json::parse("[1, 2] x").is_err(),
        "trailing text is rejected",
    );
}

fn judge_checks(c: &mut Checks) {
    let old = [10.0, 10.1, 9.9, 10.05, 9.95];
    let verdict = |new: &[f64], better| judge(better, 0.10, &old, new).0;
    c.check(
        verdict(&[10.2, 10.3, 10.1, 10.25, 10.15], Better::Lower) == Verdict::Ok,
        "+2 % within a 10 % bound is ok",
    );
    c.check(
        verdict(&[12.0, 12.1, 11.9, 12.05, 11.95], Better::Lower) == Verdict::Regressed,
        "+20 % with tight spreads is a regression",
    );
    c.check(
        verdict(&[12.0, 9.0, 14.0, 10.0, 15.0], Better::Lower) == Verdict::Unresolved,
        "a spread wider than the bound is unresolved, not a regression",
    );
    c.check(
        verdict(&[8.0, 8.1, 7.9, 8.05, 7.95], Better::Lower) == Verdict::Improved,
        "every new run below every old run is an improvement",
    );
    c.check(
        verdict(&[8.0, 8.1, 7.9, 8.05, 7.95], Better::Higher) == Verdict::Regressed,
        "direction follows `better`",
    );
}

/// `metrics.rs` and `BENCHMARK.json` must name the same things.
fn contract_checks(c: &mut Checks) {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => return c.check(false, &format!("BENCHMARK.json is readable ({e})")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return c.check(false, &format!("BENCHMARK.json parses ({e})")),
    };
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry.get(f).map_or(String::new(), |v| match v {
                            Json::Str(s) => s.clone(),
                            other => other.render(),
                        })
                    })
                    .collect()
            })
            .collect()
    };
    let own_workloads: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|(n, w)| vec![n.to_string(), w.to_string()])
        .collect();
    c.check(
        listed("workloads", &["name", "why"]) == own_workloads,
        "BENCHMARK.json workloads = metrics::WORKLOADS",
    );
    let own_e2e: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                Json::Num(m.bound).render(),
            ]
        })
        .collect();
    c.check(
        listed("end_to_end", &["name", "unit", "better", "bound"]) == own_e2e,
        "BENCHMARK.json end_to_end = metrics::END_TO_END (names, units, bounds)",
    );
    let own_layers: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            ]
        })
        .collect();
    c.check(
        listed("per_layer", &["name", "unit", "better"]) == own_layers,
        "BENCHMARK.json per_layer = metrics::PER_LAYER",
    );
    c.check(
        EXACT_COUNTS
            .iter()
            .all(|n| crate::metrics::per_layer(n).is_some()),
        "every exact-repeat count is a per-layer metric",
    );
    let valid_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|ch: char| ch.is_ascii_alphanumeric())
            && s.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
    };
    let valid_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
    };
    c.check(
        PER_LAYER.len() <= 128
            && PER_LAYER
                .iter()
                .chain(&END_TO_END)
                .all(|m| valid_name(m.name) && valid_unit(m.unit))
            && WORKLOADS
                .iter()
                .all(|(n, why)| valid_name(n) && why.len() <= 200 && !why.contains('\n')),
        "names, units and reasons fit the contract's limits",
    );
}

fn smoke(c: &mut Checks) {
    let started = Instant::now();
    for workload in crate::metrics::workload_names() {
        for trace in [false, true] {
            let opts = RunOptions {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                scale: Scale::Smoke,
            };
            let label = format!(
                "smoke {workload} {}",
                if trace { "traced" } else { "untraced" }
            );
            match runner::run(&opts) {
                Ok(result) => {
                    for f in &result.failures {
                        println!("      {f}");
                    }
                    let expected = if trace {
                        PER_LAYER.len()
                    } else {
                        END_TO_END.len()
                    };
                    c.check(
                        result.correct()
                            && result.attempted > 0
                            && result.metrics.len() == expected,
                        &format!(
                            "{label}: {} checks, {} failed",
                            result.attempted, result.failed
                        ),
                    );
                    let line = result.contract_json().render();
                    c.check(
                        Json::parse(&line).is_ok_and(|j| j.as_obj().is_some_and(|o| o.len() == 4)),
                        &format!("{label}: result line parses with exactly four keys"),
                    );
                }
                Err(e) => c.check(false, &format!("{label}: {e}")),
            }
        }
    }
    let took = started.elapsed().as_secs_f64();
    c.check(
        took < 15.0,
        &format!("smoke of every workload took {took:.1} s (< 15 s)"),
    );
}

/// Returns whether every check passed.
pub fn run() -> bool {
    let mut c = Checks { run: 0, failed: 0 };
    stats_checks(&mut c);
    span_checks(&mut c);
    json_checks(&mut c);
    judge_checks(&mut c);
    contract_checks(&mut c);
    smoke(&mut c);
    println!("selftest: {} checks, {} failed", c.run, c.failed);
    c.failed == 0
}
