//! Deterministic synthetic traffic: the request universe and a seeded
//! Zipfian sampler.
//!
//! Real visualization services see heavy-tailed request popularity — a
//! few (spec, data, cap) combinations dominate while a long tail of
//! one-off asks trickles in. The driver models that with a Zipf(s)
//! distribution over a shuffled request universe: rank `r` (1-based)
//! carries weight `r^-s`. At the quick driver's defaults (universe 72,
//! s = 1.1, 400 requests) well over half the traffic lands on
//! already-served keys, which is what makes the result cache earn its
//! place — and what the `reproduce serve --quick` acceptance gate
//! (≥ 50 % hit rate) checks.
//!
//! Everything here is seeded xorshift64 ([`vizmesh::XorShift`],
//! re-exported here) — no external RNG crate, and
//! byte-identical traffic for a given `(universe, config)` pair.

use powersim::Watts;
use vizalgo::{Algorithm, Backend};
pub use vizmesh::XorShift;
use vizpower::StudyConfig;

use crate::engine::Request;

/// Parameters of one synthetic traffic run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Requests to draw.
    pub requests: usize,
    /// Zipf exponent `s` (0 = uniform; larger = heavier head).
    pub zipf_s: f64,
    /// RNG seed for both the universe shuffle and the draws.
    pub seed: u64,
}

/// The full request universe: every `(algorithm, size, cap, backend)`
/// combination the study config can express, with backends filtered to
/// those that support the algorithm. Order is deterministic:
/// algorithm-major, then size, then cap, then backend.
pub fn universe(study: &StudyConfig, sizes: &[usize], caps: &[Watts]) -> Vec<Request> {
    let mut all = Vec::new();
    for algorithm in Algorithm::ALL {
        let spec = study.spec(algorithm);
        for &size in sizes {
            for &cap in caps {
                for backend in Backend::ALL {
                    if backend.supports(algorithm) {
                        all.push(Request {
                            spec: spec.clone(),
                            size,
                            cap,
                            backend,
                        });
                    }
                }
            }
        }
    }
    all
}

/// Draw `cfg.requests` requests from `universe` under a Zipf(`s`)
/// popularity law over a seeded shuffle of the universe (so which
/// requests are popular varies with the seed, not just how popular the
/// head is).
pub fn zipf_traffic(universe: &[Request], cfg: TrafficConfig) -> Vec<Request> {
    if universe.is_empty() || cfg.requests == 0 {
        return Vec::new();
    }
    let mut rng = XorShift::new(cfg.seed);
    // Fisher–Yates: rank-to-request assignment.
    let mut ranked: Vec<usize> = (0..universe.len()).collect();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.below(i + 1));
    }
    // Zipf CDF over ranks 1..=n with weight r^-s.
    let mut cdf = Vec::with_capacity(ranked.len());
    let mut total = 0.0f64;
    for r in 1..=ranked.len() {
        total += (r as f64).powf(-cfg.zipf_s);
        cdf.push(total);
    }
    (0..cfg.requests)
        .map(|_| {
            let draw = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c < draw).min(ranked.len() - 1);
            universe[ranked[rank]].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_universe() -> Vec<Request> {
        universe(
            &StudyConfig::quick(),
            &[8, 12],
            &[Watts(120.0), Watts(80.0), Watts(40.0)],
        )
    }

    #[test]
    fn universe_enumerates_supported_combinations_once() {
        let u = quick_universe();
        // 8 algorithms × 2 sizes × 3 caps on traditional, plus the 4
        // DPP-expressible algorithms × 2 × 3.
        assert_eq!(u.len(), 8 * 2 * 3 + 4 * 2 * 3);
        for r in &u {
            assert!(r.backend.supports(r.spec.algorithm()));
        }
    }

    #[test]
    fn traffic_is_seed_deterministic_and_zipf_skewed() {
        let u = quick_universe();
        let cfg = TrafficConfig {
            requests: 400,
            zipf_s: 1.1,
            seed: 7,
        };
        let a = zipf_traffic(&u, cfg);
        let b = zipf_traffic(&u, cfg);
        assert_eq!(a.len(), 400);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "replay-identical");
        // Skew: the most popular key should dominate a uniform share.
        let mut counts = std::collections::HashMap::new();
        for r in &a {
            *counts
                .entry((
                    r.spec.fingerprint(),
                    r.size,
                    r.backend,
                    r.cap.value() as u64,
                ))
                .or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(
            max > 400 / u.len() * 4,
            "zipf head should beat uniform: max {max}"
        );
        let other = zipf_traffic(&u, TrafficConfig { seed: 8, ..cfg });
        assert_ne!(
            format!("{a:?}"),
            format!("{other:?}"),
            "seed moves the draw"
        );
    }

    #[test]
    fn degenerate_inputs_yield_empty_traffic() {
        let u = quick_universe();
        assert!(zipf_traffic(
            &[],
            TrafficConfig {
                requests: 10,
                zipf_s: 1.0,
                seed: 1
            }
        )
        .is_empty());
        assert!(zipf_traffic(
            &u,
            TrafficConfig {
                requests: 0,
                zipf_s: 1.0,
                seed: 1
            }
        )
        .is_empty());
    }
}
