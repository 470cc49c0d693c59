//! An absolute pin of a coupled run: the benchmark's in situ action list
//! (contour, threshold and slice in one pipeline, then a ray-tracing
//! scene) at smoke size, 16³ cells, two cycles of ten steps.
//!
//! Each cycle's images (every pixel and depth), its visualization
//! kernels' counters and its per-hydro-kernel counters go into one
//! FNV-1a, at 1 and 16 threads. The constant was taken before the hydro
//! sweeps moved to the cell-row walk, so it pins what the coupled run
//! computes, not how: a pin that moves is a kernel or runtime bug, never
//! a re-pin.

use cloverleaf::Problem;
use insitu::{Action, ActionList, CoupledRun, InSituRuntime, RuntimeConfig, Trigger};
use vizalgo::{Algorithm, AlgorithmSpec, Fnv1a, KernelReport};
use vizmesh::par;

const STEPS_PER_CYCLE: u64 = 10;

fn actions() -> ActionList {
    ActionList(vec![
        Action::AddPipeline {
            name: "geometry".into(),
            filters: [Algorithm::Contour, Algorithm::Threshold, Algorithm::Slice]
                .map(Algorithm::default_spec)
                .to_vec(),
        },
        Action::AddScene {
            name: "raytrace".into(),
            renderer: AlgorithmSpec::RayTracing {
                field: "energy".into(),
                width: 32,
                height: 32,
                images: 2,
            },
        },
    ])
}

fn hash_reports(h: &mut Fnv1a, reports: &[KernelReport]) {
    for KernelReport { name, work: w, .. } in reports {
        h.update(name.as_bytes());
        let counters = [
            w.items,
            w.instructions,
            w.flops,
            w.bytes_read,
            w.bytes_written,
            w.working_set_bytes,
        ];
        for v in counters {
            h.update_u64(v);
        }
    }
}

/// Two `run()` calls on one runtime, ten steps and one cycle each, as
/// the benchmark drives it; the hash of both cycles.
fn coupled_hash() -> u64 {
    let config = RuntimeConfig {
        grid_cells: 16,
        total_steps: STEPS_PER_CYCLE,
        trigger: Trigger::EveryN { n: STEPS_PER_CYCLE },
    };
    let mut rt = InSituRuntime::new(Problem::TwoState, config, actions());
    let mut h = Fnv1a::new();
    for _ in 0..2 {
        let run: CoupledRun = rt.run();
        assert_eq!(run.cycles.len(), 1);
        for cycle in &run.cycles {
            h.update_u64(cycle.step);
            hash_reports(&mut h, &cycle.sim_phases);
            hash_reports(&mut h, &cycle.viz_kernels);
            for image in &cycle.images {
                for y in 0..image.height() {
                    for x in 0..image.width() {
                        for c in image.get(x, y) {
                            h.update_u64(u64::from(c.to_bits()));
                        }
                        h.update_u64(u64::from(image.depth_at(x, y).to_bits()));
                    }
                }
            }
        }
    }
    h.finish48()
}

#[test]
fn two_cycles_of_the_benchmark_action_list_at_16_cubed() {
    for threads in [1, 16] {
        let got = par::with_threads(threads, coupled_hash);
        assert_eq!(got, 0xe653_036c_c216, "{got:#014x} at {threads} threads");
    }
}
