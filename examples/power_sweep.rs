//! Sweep an algorithm across the paper's nine power caps and print a
//! Table-I-style report.
//!
//! ```text
//! cargo run --release --example power_sweep -- [algorithm] [size]
//! cargo run --release --example power_sweep -- volren 32
//! ```
//!
//! Algorithms: contour, threshold, clip, isovolume, slice, advection,
//! raytracing, volren. Default: contour at 32³.

use vizalgo::Algorithm;
use vizpower::report;
use vizpower::study::{StudyConfig, StudyContext};
use vizpower::{classify, first_slowdown_cap};

fn main() {
    let algorithm = std::env::args()
        .nth(1)
        .and_then(|s| Algorithm::parse(&s))
        .unwrap_or(Algorithm::Contour);
    let size: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);

    println!("sweeping {algorithm} at {size}^3 across the paper's nine caps ...\n");
    let mut ctx = StudyContext::new(StudyConfig::paper());
    let sweep = ctx.sweep(algorithm, size);
    print!("{}", report::render_table1(&sweep));

    let ratios = sweep.ratios();
    println!(
        "\nclass: {}   first 10% slowdown: {}",
        classify(&ratios),
        match first_slowdown_cap(&ratios) {
            Some(c) => format!("{c:.0} W"),
            None => "never".into(),
        }
    );
    let last = ratios.last().unwrap();
    if last.data_intensive() {
        println!(
            "at 40 W the slowdown ({:.2}x) is smaller than the power cut ({:.1}x) —",
            last.tratio, last.pratio
        );
        println!(
            "users can trade {:.1}x less power for a {:.2}x longer run (paper §V-A).",
            last.pratio, last.tratio
        );
    } else {
        println!(
            "at 40 W the slowdown ({:.2}x) matches or exceeds the power cut ({:.1}x) —",
            last.tratio, last.pratio
        );
        println!("capping this algorithm buys nothing (paper §V-A).");
    }
}
