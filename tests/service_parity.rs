//! Differential parity for the study service: every response the
//! service produces — cold miss, same-batch coalesced, or warm cache
//! hit, at any worker count — carries the [`Rendering`] (byte count and
//! FNV-1a digest of the `Debug` text) of a cold direct
//! `AlgorithmSpec::build_with` run of the same spec on the same
//! dataset, on both backends.
//!
//! This is the license for the cache to exist at all: deduping two
//! requests onto one execution is only sound if a cached response is
//! indistinguishable from the execution it stands in for.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use powersim::trace::Journal;
use powersim::Watts;
use service::{Outcome, Rendering, Request, ServiceConfig, StudyService};
use vizalgo::{Algorithm, Backend};
use vizpower::study::{dataset_for, StudyConfig};

const SIZE: usize = 8;

/// Small-but-structured study parameterization (mirrors the
/// registry-parity suite's sizes).
fn study_config() -> StudyConfig {
    StudyConfig {
        caps: vec![Watts(120.0), Watts(60.0)],
        isovalues: 4,
        render_px: 12,
        cameras: 2,
        particles: 25,
        advect_steps: 30,
    }
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        nodes: 2,
        workers,
        batch: 16,
        fleet_budget: Watts(180.0),
        shards: 4,
        study: study_config(),
        ..ServiceConfig::default()
    }
}

/// Every `(algorithm, backend, cap)` combination the study config can
/// express, duplicated so each batch also exercises the coalescing
/// path.
fn traffic() -> Vec<Request> {
    let config = study_config();
    let mut requests = Vec::new();
    for algorithm in Algorithm::ALL {
        for backend in Backend::ALL {
            if !backend.supports(algorithm) {
                continue;
            }
            for &cap in &config.caps {
                let req = Request {
                    spec: config.spec(algorithm),
                    size: SIZE,
                    cap,
                    backend,
                };
                requests.push(req.clone());
                requests.push(req);
            }
        }
    }
    requests
}

/// Cold reference: one direct, service-free execution per
/// `(algorithm, backend)`, digested. The cap does not enter the native
/// output, so two caps per combination share one reference.
fn cold_references() -> HashMap<(Algorithm, Backend), Rendering> {
    let config = study_config();
    let dataset = dataset_for(SIZE);
    let mut refs = HashMap::new();
    for algorithm in Algorithm::ALL {
        for backend in Backend::ALL {
            if !backend.supports(algorithm) {
                continue;
            }
            let spec = config.spec(algorithm);
            let out = spec.build_with(backend, &dataset).execute(&dataset);
            refs.insert((algorithm, backend), Rendering::of(&out));
        }
    }
    refs
}

#[test]
fn every_response_matches_a_cold_direct_run_at_any_worker_count() {
    let refs = cold_references();
    let traffic = traffic();
    for workers in [1usize, 4, 16] {
        let mut svc = StudyService::new(service_config(workers)).expect("valid config");
        let cold = svc
            .serve(&traffic, &mut Journal::off())
            .expect("traffic serves");
        // First pass: misses and coalesced only (nothing was resident).
        assert!(
            cold.responses.iter().all(|r| r.outcome != Outcome::Hit),
            "first serve cannot hit ({workers} workers)"
        );
        assert!(
            cold.responses
                .iter()
                .any(|r| r.outcome == Outcome::Coalesced),
            "duplicated traffic must coalesce ({workers} workers)"
        );
        for (req, resp) in traffic.iter().zip(&cold.responses) {
            let expected = &refs[&(req.spec.algorithm(), req.backend)];
            assert_eq!(
                resp.result.output_debug,
                *expected,
                "{:?}/{:?} via {:?} diverged from the cold direct run \
                 ({workers} workers)",
                req.spec.algorithm(),
                req.backend,
                resp.outcome,
            );
        }
        // Second pass: everything is resident; hits must still be
        // byte-identical to the cold reference.
        let warm = svc
            .serve(&traffic, &mut Journal::off())
            .expect("traffic serves again");
        for (req, resp) in traffic.iter().zip(&warm.responses) {
            assert_eq!(resp.outcome, Outcome::Hit, "warm pass must hit");
            let expected = &refs[&(req.spec.algorithm(), req.backend)];
            assert_eq!(
                resp.result.output_debug,
                *expected,
                "cache hit for {:?}/{:?} diverged ({workers} workers)",
                req.spec.algorithm(),
                req.backend,
            );
        }
    }
}

#[test]
fn coalesced_and_hit_responses_share_the_miss_allocation() {
    let traffic = traffic();
    let mut svc = StudyService::new(service_config(4)).expect("valid config");
    let cold = svc
        .serve(&traffic, &mut Journal::off())
        .expect("traffic serves");
    // Consecutive duplicates resolve to the same key and the same Arc.
    for pair in cold.responses.chunks(2) {
        assert_eq!(pair[0].key, pair[1].key);
        assert!(
            Arc::ptr_eq(&pair[0].result, &pair[1].result),
            "duplicate requests must share one result allocation"
        );
    }
    // Every cap of one (algorithm, backend) carries the one rendering
    // of its native run, and no two native runs carry the same digest.
    let mut renderings: HashMap<(Algorithm, Backend), Rendering> = HashMap::new();
    for (req, resp) in traffic.iter().zip(&cold.responses) {
        let rendering = renderings
            .entry((req.spec.algorithm(), req.backend))
            .or_insert(resp.result.output_debug);
        assert_eq!(
            *rendering,
            resp.result.output_debug,
            "every cap of {:?}/{:?} must carry one rendering",
            req.spec.algorithm(),
            req.backend,
        );
    }
    let distinct: HashSet<u64> = renderings.values().map(|r| r.fp).collect();
    assert_eq!(
        distinct.len(),
        renderings.len(),
        "one digest per (algorithm, backend) served"
    );
    let warm = svc
        .serve(&traffic, &mut Journal::off())
        .expect("traffic serves again");
    for (c, w) in cold.responses.iter().zip(&warm.responses) {
        assert!(
            Arc::ptr_eq(&c.result, &w.result),
            "hits must reuse the originally computed allocation"
        );
    }
}
