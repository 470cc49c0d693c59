//! Classify an algorithm the paper never measured — its §VIII future
//! work: "Other visualization algorithms should be classified so
//! informed decisions can be made regarding how to allocate power."
//!
//! ```text
//! cargo run --release --example classify_new_algorithm
//! ```
//!
//! The ninth algorithm here is gradient-magnitude computation (shading
//! normals / feature detection), implemented and instrumented like the
//! paper's eight. The same study machinery sweeps it across the nine
//! caps and reports its class.

use powersim::trace::Journal;
use powersim::CpuSpec;
use vizalgo::{Filter, Gradient};
use vizpower::characterize::characterize;
use vizpower::study::{dataset_for, CapSweep, PAPER_CAPS};
use vizpower::{classify, first_slowdown_cap, report};

fn main() {
    println!("running gradient-magnitude on the 64^3 CloverLeaf energy field ...");
    let data = dataset_for(64);
    let filter = Gradient::new("energy");
    let out = filter.execute(&data);
    let result = out.dataset.as_ref().unwrap();
    let (lo, hi) = result
        .field("energy_gradmag")
        .unwrap()
        .scalar_range()
        .unwrap();
    println!("  |∇energy| range: [{lo:.3}, {hi:.3}]\n");

    let spec = CpuSpec::broadwell_e5_2695v4();
    let workload = characterize("gradient", &out.kernels, &spec);
    let rows = PAPER_CAPS
        .iter()
        .map(|&cap| {
            let mut pkg = powersim::Package::new(spec.clone());
            pkg.run_capped(&workload, cap, &mut Journal::off())
        })
        .collect();
    let sweep = CapSweep {
        algorithm: vizalgo::Algorithm::Slice, // closest label for display
        size: 64,
        input_cells: data.num_cells(),
        rows,
    };
    println!("Gradient (displayed under its nearest relative, slice):");
    print!("{}", report::render_table1(&sweep));

    let ratios = sweep.ratios();
    println!(
        "\nverdict: gradient-magnitude is {} (first 10% slowdown: {})",
        classify(&ratios),
        match first_slowdown_cap(&ratios) {
            Some(c) => format!("{c:.0} W"),
            None => "never".into(),
        }
    );
    println!(
        "IPC at default power: {:.2}",
        sweep.baseline().expect("non-empty sweep").avg_ipc
    );
    println!("\nlike the paper's cell-centered algorithms, the stencil is");
    println!("streaming and data-bound: another power-opportunity citizen.");
}
