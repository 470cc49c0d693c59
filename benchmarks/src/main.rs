//! vizbench — the repository's benchmark: four bounded workloads and
//! two that ride on their traced runs, four bounded end-to-end metrics
//! (plus the failure count), and a traced run that gives every layer
//! its own numbers. See README.md beside
//! this package for the design and `BENCHMARK.json` at the repository
//! root for the contract.

mod json;
mod metrics;
mod procinfo;
mod runner;
mod selftest;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  vizbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
  vizbench [--runs <n>] [--seed <n>] [--seconds <n>] [--out <file>]
  vizbench compare <old.json> <new.json>
  vizbench table <set.json>    (per-layer medians of a result set, markdown)
  vizbench contract            (prints BENCHMARK.json from metrics.rs)
  vizbench --selftest";

fn fail(message: &str) -> ExitCode {
    eprintln!("vizbench: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Before the first parallel call: real rayon sizes its global pool
    // from RAYON_NUM_THREADS on first use, and the in-repo thread pool
    // the roadmap plans reads VIZPOWER_THREADS. The sequential stub
    // build ignores both (see `build_mode` in every result).
    let threads = runner::threads().to_string();
    std::env::set_var("RAYON_NUM_THREADS", &threads);
    std::env::set_var("VIZPOWER_THREADS", &threads);

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match args.as_slice() {
                [_, old, new] => match suite::compare(old, new) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::from(1),
                    Err(e) => fail(&e),
                },
                _ => fail(USAGE),
            };
        }
        Some("table") => {
            return match args.as_slice() {
                [_, set] => match suite::table(set) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => fail(&e),
                },
                _ => fail(USAGE),
            };
        }
        Some("contract") => {
            print!("{}", metrics::contract().pretty());
            return ExitCode::SUCCESS;
        }
        Some("--selftest") => {
            return if selftest::run() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
        }
        _ => {}
    }

    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = metrics::RUN_SECONDS;
    let mut trace = false;
    let mut runs = 3usize;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value\n{USAGE}"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--out" => {
                out = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| seconds = v).map_err(|_| ()),
            "--runs" => value.parse().map(|v| runs = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" => Ok(trace = false),
                "1" => Ok(trace = true),
                _ => Err(()),
            },
            _ => return fail(&format!("unknown argument {flag}\n{USAGE}")),
        };
        if parsed.is_err() {
            return fail(&format!("bad value '{value}' for {flag}\n{USAGE}"));
        }
    }
    if !(1..=60).contains(&seconds) || runs == 0 {
        return fail("--seconds must be 1..=60 and --runs at least 1");
    }

    let Some(workload) = workload else {
        return match suite::run(&suite::SuiteOptions {
            runs,
            seed,
            seconds,
            out,
        }) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => fail(&e),
        };
    };
    let opts = runner::RunOptions {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        scale: workloads::Scale::Full,
    };
    match runner::run(&opts) {
        Ok(result) => {
            for f in &result.failures {
                eprintln!("check failed: {f}");
            }
            println!("{}", result.detail.render());
            println!("{}", result.contract_json().render());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => fail(&e),
    }
}
