//! Quickstart: simulate, visualize, measure under a power cap.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the CloverLeaf-style proxy, extracts a contour of its energy
//! field, renders one image, and then asks the simulated RAPL-capped
//! Broadwell package how the same contour behaves at 120 W vs 40 W.

use powersim::trace::Journal;
use powersim::{CpuSpec, Package, Watts};
use vizalgo::{Algorithm, AlgorithmSpec};
use vizpower::characterize::characterize;
use vizpower::study::dataset_for;

fn main() {
    // 1. Produce data: the hydro proxy runs to the study's end time.
    println!("running the CloverLeaf proxy at 32^3 ...");
    let data = dataset_for(32);
    let (lo, hi) = data.field("energy").unwrap().scalar_range().unwrap();
    println!(
        "  energy field range: [{lo:.3}, {hi:.3}] over {} cells",
        data.num_cells()
    );

    // 2. Visualize: a 10-isovalue contour, exactly as the paper runs it
    //    (the paper-default spec from the algorithm registry).
    let contour = Algorithm::Contour.default_spec().build(&data);
    let out = contour.execute(&data);
    let surface = out.dataset.as_ref().unwrap();
    println!(
        "  contour extracted {} triangles / {} points",
        surface.num_cells(),
        surface.num_points()
    );

    // 3. Render one frame of the raw data for reference.
    let rt = AlgorithmSpec::RayTracing {
        field: "energy".into(),
        width: 200,
        height: 200,
        images: 1,
    }
    .build(&data);
    let frame = rt.execute(&data);
    let path = std::env::temp_dir().join("vizpower_quickstart.ppm");
    frame.images[0].save_ppm(&path, [1.0, 1.0, 1.0]).unwrap();
    println!("  wrote {}", path.display());

    // 4. Power study: run the measured contour workload on the simulated
    //    package at the default power and at the paper's severest cap.
    let spec = CpuSpec::broadwell_e5_2695v4();
    let workload = characterize("contour", &out.kernels, &spec);
    let base = Package::new(spec.clone()).run_capped(&workload, Watts(120.0), &mut Journal::off());
    let capped = Package::new(spec).run_capped(&workload, Watts(40.0), &mut Journal::off());
    println!("\n                 {:>10}  {:>10}", "120 W", "40 W");
    println!(
        "time             {:>9.3}s  {:>9.3}s   ({:.2}x slowdown for a 3x power cut)",
        base.seconds,
        capped.seconds,
        capped.seconds / base.seconds
    );
    println!(
        "avg power        {:>9.1}W  {:>9.1}W",
        base.avg_power_watts, capped.avg_power_watts
    );
    println!(
        "effective freq   {:>8.2}GHz {:>8.2}GHz",
        base.avg_effective_freq_ghz, capped.avg_effective_freq_ghz
    );
    println!(
        "IPC              {:>10.2}  {:>10.2}",
        base.avg_ipc, capped.avg_ipc
    );
    println!("\nContour is a power-opportunity algorithm: capping the");
    println!("processor to a third of TDP costs only a fraction of the time.");
}
