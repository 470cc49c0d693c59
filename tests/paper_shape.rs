//! The reproduction's shape criteria (DESIGN.md §4): the qualitative
//! results of the paper, asserted end-to-end — real hydro data, real
//! algorithm executions, simulated power-capped processor — at reduced
//! scale so the suite stays fast.

use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

use powersim::{CpuSpec, Watts};
use vizalgo::Algorithm;
use vizpower::study::{sweep, StudyConfig, StudyContext, PAPER_CAPS};
use vizpower::{classify, first_slowdown_cap, PowerClass};

const SIZE: usize = 16;

/// Every size a test sweeps or runs.
const SIZES: [usize; 5] = [8, SIZE, 20, 24, 48];

/// The one context every test shares at `size`. A context memoizes each
/// algorithm's run, so the suite executes each `(algorithm, size)` once
/// instead of once per test; one context per size lets tests at other
/// sizes run meanwhile. A test that fails while holding a context
/// leaves it usable for the others.
fn quick_ctx(size: usize) -> MutexGuard<'static, StudyContext> {
    static CTXS: LazyLock<Vec<Mutex<StudyContext>>> = LazyLock::new(|| {
        SIZES
            .iter()
            .map(|_| {
                Mutex::new(StudyContext::new(StudyConfig {
                    caps: PAPER_CAPS.to_vec(),
                    isovalues: 5,
                    render_px: 64,
                    cameras: 8,
                    particles: 300,
                    advect_steps: 250,
                }))
            })
            .collect()
    });
    let i = SIZES
        .iter()
        .position(|&s| s == size)
        .unwrap_or_else(|| panic!("size {size} is not in SIZES"));
    CTXS[i].lock().unwrap_or_else(PoisonError::into_inner)
}

/// Criterion 2: the paper's two classes come out exactly.
#[test]
fn classes_match_the_paper() {
    let mut ctx = quick_ctx(SIZE);
    for algorithm in Algorithm::ALL {
        let sweep = ctx.sweep(algorithm, SIZE);
        let class = classify(&sweep.ratios());
        let expected = match algorithm {
            Algorithm::ParticleAdvection | Algorithm::VolumeRendering => PowerClass::PowerSensitive,
            _ => PowerClass::PowerOpportunity,
        };
        assert_eq!(class, expected, "{algorithm} misclassified");
    }
}

/// Criterion 1 + 2: the sensitive algorithms slow down hard at 40 W
/// (advection worst, ≥ 1.7×), the opportunity algorithms stay under 2×.
#[test]
fn forty_watt_slowdowns_have_paper_magnitudes() {
    let mut ctx = quick_ctx(SIZE);
    let mut at_40 = Vec::new();
    for algorithm in Algorithm::ALL {
        let sweep = ctx.sweep(algorithm, SIZE);
        let t40 = sweep.ratios().last().unwrap().tratio;
        at_40.push((algorithm, t40));
    }
    let t = |a: Algorithm| at_40.iter().find(|(x, _)| *x == a).unwrap().1;
    let advection = t(Algorithm::ParticleAdvection);
    assert!(advection >= 1.7, "advection T@40 = {advection}");
    // Advection has the worst (or tied-worst) slowdown, like Table II.
    for (a, v) in &at_40 {
        assert!(
            *v <= advection + 0.05,
            "{a} slows more than advection: {v} > {advection}"
        );
    }
    // The data-bound algorithms keep their §V-A cushion: slowdown well
    // below the 3x power reduction.
    for a in [Algorithm::Contour, Algorithm::Threshold, Algorithm::Slice] {
        assert!(t(a) < 2.0, "{a} T@40 = {}", t(a));
    }
}

/// Criterion 1: contour stays flat until severe caps (Table I).
#[test]
fn contour_is_flat_until_severe_caps() {
    let mut ctx = quick_ctx(SIZE);
    let sweep = ctx.sweep(Algorithm::Contour, SIZE);
    let ratios = sweep.ratios();
    for r in &ratios {
        if r.cap_watts >= 60.0 {
            assert!(
                r.tratio < 1.10,
                "contour slowed at {} W: {}",
                r.cap_watts,
                r.tratio
            );
        }
    }
    // And the 40 W row is data intensive: Tratio < Pratio.
    let last = ratios.last().unwrap();
    assert!(last.data_intensive());
}

/// Criterion 2: the sensitive algorithms hit 10 % by 70–90 W.
#[test]
fn sensitive_algorithms_slow_down_early() {
    let mut ctx = quick_ctx(SIZE);
    for algorithm in [Algorithm::ParticleAdvection, Algorithm::VolumeRendering] {
        let sweep = ctx.sweep(algorithm, SIZE);
        let cap = first_slowdown_cap(&sweep.ratios()).expect("must slow down");
        assert!(
            (70.0..=90.0).contains(&cap),
            "{algorithm} first slowdown at {cap} W"
        );
    }
}

/// Criterion 3: everything runs ≈ turbo uncapped; knees ordered by power.
#[test]
fn uncapped_frequency_is_turbo_for_everyone() {
    let mut ctx = quick_ctx(SIZE);
    for algorithm in Algorithm::ALL {
        let sweep = ctx.sweep(algorithm, SIZE);
        let f = sweep
            .baseline()
            .expect("non-empty sweep")
            .avg_effective_freq_ghz;
        assert!(
            (2.55..=2.62).contains(&f),
            "{algorithm} uncapped frequency {f}"
        );
    }
}

/// Criterion 4: the IPC split of Fig. 2b.
#[test]
fn ipc_ordering_matches_fig2b() {
    let mut ctx = quick_ctx(SIZE);
    let ipc = |ctx: &mut StudyContext, a: Algorithm| {
        ctx.sweep(a, SIZE)
            .baseline()
            .expect("non-empty sweep")
            .avg_ipc
    };
    let threshold = ipc(&mut ctx, Algorithm::Threshold);
    let contour = ipc(&mut ctx, Algorithm::Contour);
    let clip = ipc(&mut ctx, Algorithm::SphericalClip);
    let isovolume = ipc(&mut ctx, Algorithm::Isovolume);
    let volren = ipc(&mut ctx, Algorithm::VolumeRendering);
    let advection = ipc(&mut ctx, Algorithm::ParticleAdvection);

    // Data-bound class under 1.
    for (name, v) in [
        ("threshold", threshold),
        ("contour", contour),
        ("clip", clip),
        ("isovolume", isovolume),
    ] {
        assert!(v < 1.0, "{name} IPC = {v}");
    }
    // Threshold among the lowest.
    assert!(threshold <= contour + 0.05);
    // Compute-bound class above 1.8, advection the peak (paper: 2.68).
    assert!(volren > 1.8, "volren IPC = {volren}");
    assert!(advection > 2.2, "advection IPC = {advection}");
    assert!(advection > volren - 0.05);
    assert!(advection < 3.0, "IPC cannot exceed paper magnitudes wildly");
}

/// Criterion 5: LLC miss-rate ordering of Fig. 2c.
#[test]
fn llc_miss_ordering_matches_fig2c() {
    let mut ctx = quick_ctx(SIZE);
    let miss = |ctx: &mut StudyContext, a: Algorithm| {
        ctx.sweep(a, SIZE)
            .baseline()
            .expect("non-empty sweep")
            .avg_llc_miss_rate
    };
    let isovolume = miss(&mut ctx, Algorithm::Isovolume);
    let advection = miss(&mut ctx, Algorithm::ParticleAdvection);
    let volren = miss(&mut ctx, Algorithm::VolumeRendering);
    for a in Algorithm::ALL {
        let m = miss(&mut ctx, a);
        assert!(
            m <= isovolume + 1e-9,
            "{a} miss rate {m} exceeds isovolume's {isovolume}"
        );
    }
    assert!(advection < 0.1, "advection miss rate {advection}");
    assert!(volren < 0.15, "volren miss rate {volren}");
}

/// Criterion 7 (Fig. 4): slice IPC rises with data size.
#[test]
fn slice_ipc_rises_with_size() {
    let small = quick_ctx(8)
        .sweep(Algorithm::Slice, 8)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    let large = quick_ctx(20)
        .sweep(Algorithm::Slice, 20)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    assert!(large > small * 1.05, "slice IPC {small} -> {large}");
}

/// Criterion 7 (Fig. 6): advection IPC is flat across sizes.
#[test]
fn advection_ipc_flat_with_size() {
    let small = quick_ctx(8)
        .sweep(Algorithm::ParticleAdvection, 8)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    let large = quick_ctx(20)
        .sweep(Algorithm::ParticleAdvection, 20)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    assert!(
        (small - large).abs() / small < 0.05,
        "advection IPC {small} vs {large}"
    );
}

/// Criterion 7 (Fig. 5): volume rendering IPC falls once the volume
/// exceeds the LLC. Tested with a reduced-LLC package so the capacity
/// effect triggers at test scale.
#[test]
fn volren_ipc_falls_past_llc_capacity() {
    let mut spec = CpuSpec::broadwell_e5_2695v4();
    // 150 kB LLC: the 24³ volume (~118 kB of doubles) fits, 48³ (~941 kB)
    // overflows ~6x — the same ratio 128³ vs 256³ has against 45 MB.
    spec.llc_bytes = 150 * 1024;
    let small_run = quick_ctx(24).run(Algorithm::VolumeRendering, 24);
    let large_run = quick_ctx(48).run(Algorithm::VolumeRendering, 48);
    let small = sweep(&small_run, &[Watts(120.0)], &spec)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    let large = sweep(&large_run, &[Watts(120.0)], &spec)
        .baseline()
        .expect("non-empty sweep")
        .avg_ipc;
    assert!(
        large < small * 0.97,
        "volren IPC should fall past capacity: {small} -> {large}"
    );
}

/// Criterion 6: first-slowdown caps never move *down* dramatically with
/// size, and the compute-bound algorithms are size-insensitive
/// (§VII: "the change in data set size does not impact the power usage").
#[test]
fn sensitive_algorithms_unaffected_by_size() {
    for algorithm in [Algorithm::ParticleAdvection, Algorithm::VolumeRendering] {
        let small = quick_ctx(8).sweep(algorithm, 8);
        let large = quick_ctx(20).sweep(algorithm, 20);
        let c_small = first_slowdown_cap(&small.ratios()).unwrap();
        let c_large = first_slowdown_cap(&large.ratios()).unwrap();
        assert_eq!(c_small, c_large, "{algorithm} moved with size");
    }
}
