//! Property tests for the study service's hard laws:
//!
//! 1. **Budget law** — no scheduling window's admitted power exceeds a
//!    node's share of the fleet budget, for any traffic and any
//!    feasible fleet shape; and the fleet never exceeds the budget in
//!    aggregate (per-node share × nodes ≤ fleet budget).
//! 2. **Bookkeeping law** — hits + misses + coalesced always equals the
//!    request count, and the responses agree with the report.
//! 3. **Key-sensitivity law** — perturbing any one of the four cache-key
//!    components (spec, dataset, cap, backend) forces a miss where the
//!    unperturbed request hits.
//! 4. **Replay law** — identical `(config, traffic)` produce
//!    byte-identical reports and journals, regardless of worker count,
//!    over successive calls on one service, slot-capped or not.
//! 5. **Traffic laws** — the Zipf sampler is seed-deterministic, draws
//!    only from its universe with boundedly many distinct keys, and its
//!    rank-binned frequencies decay monotonically (the heavy head the
//!    cache's hit rate depends on).
//!
//! Kept intentionally small (cheap algorithms, 6³/8³ data, single-digit
//! case counts): each case executes real filter kernels through the
//! full service path.

use powersim::trace::Journal;
use powersim::Watts;
use propcheck::prelude::*;
use service::traffic::{universe, zipf_traffic, TrafficConfig, XorShift};
use service::{Outcome, Request, ServiceConfig, StudyService};
use vizalgo::{Algorithm, Backend};
use vizpower::StudyConfig;

/// A stable identity for one universe entry (requests don't implement
/// `Eq`, so comparisons go through the cache-key components).
fn request_id(r: &Request) -> (u64, usize, u64, Backend) {
    (
        r.spec.fingerprint(),
        r.size,
        r.cap.value().to_bits(),
        r.backend,
    )
}

/// The traffic driver's quick universe (72 + 24 entries).
fn quick_universe() -> Vec<Request> {
    universe(
        &StudyConfig::quick(),
        &[8, 12],
        &[Watts(120.0), Watts(80.0), Watts(40.0)],
    )
}

fn algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Slice),
        Just(Algorithm::Threshold),
        Just(Algorithm::Contour),
    ]
}

fn backend() -> impl Strategy<Value = Backend> {
    // All three algorithms above have DPP formulations, so both
    // backends are always valid traffic.
    prop_oneof![Just(Backend::Traditional), Just(Backend::Dpp)]
}

fn request() -> impl Strategy<Value = Request> {
    (
        algorithm(),
        prop_oneof![Just(6usize), Just(8usize)],
        30.0f64..200.0,
        backend(),
    )
        .prop_map(|(algorithm, size, cap, backend)| Request {
            spec: algorithm.default_spec(),
            size,
            cap: Watts(cap),
            backend,
        })
}

fn config(nodes: usize, workers: usize, batch: usize, share: f64, seed: u64) -> ServiceConfig {
    ServiceConfig {
        nodes,
        workers,
        batch,
        fleet_budget: Watts(share * nodes as f64),
        seed,
        shards: 4,
        ..ServiceConfig::default()
    }
}

fn service(nodes: usize, workers: usize, batch: usize, share: f64, seed: u64) -> StudyService {
    StudyService::new(config(nodes, workers, batch, share, seed))
        .expect("per-node share >= 40 W is always feasible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn admitted_power_never_exceeds_the_budget_and_books_balance(
        traffic in prop::collection::vec(request(), 1..14),
        nodes in 1usize..4,
        workers in 1usize..4,
        batch in 2usize..6,
        share in 40.0f64..120.0,
    ) {
        let mut svc = service(nodes, workers, batch, share, 0x5eed_0009);
        let budget = svc.node_budget();
        let fleet = svc.config().fleet_budget;
        prop_assert!(budget.value() * nodes as f64 <= fleet.value() + 1e-6);
        let out = svc.serve(&traffic, &mut Journal::off()).expect("serves");
        let r = &out.report;
        prop_assert_eq!(r.hits + r.misses + r.coalesced, r.requests);
        prop_assert_eq!(r.requests, traffic.len());
        prop_assert_eq!(out.responses.len(), traffic.len());
        for w in &r.windows {
            prop_assert!(
                w.admitted.value() <= budget.value() + 1e-6,
                "window {w:?} over node budget {budget:?}"
            );
            prop_assert!(w.jobs > 0);
        }
        for resp in &out.responses {
            // Every admitted cap individually fits its node's budget
            // and the hardware range.
            prop_assert!(resp.key.cap().value() <= budget.value() + 1e-6);
            prop_assert!(resp.key.cap() >= svc.config().cpu.min_cap_watts);
            prop_assert!((resp.node as usize) < nodes);
        }
        let hits = out.responses.iter().filter(|r| r.outcome == Outcome::Hit).count();
        prop_assert_eq!(hits, r.hits, "responses agree with the report");
    }

    #[test]
    fn perturbing_any_key_component_forces_a_miss(
        cap in 50.0f64..90.0,
        seed in 0u64..1_000_000,
    ) {
        let mut svc = service(2, 2, 8, 90.0, seed);
        let base = Request {
            spec: Algorithm::Threshold.default_spec(),
            size: 6,
            cap: Watts(cap),
            backend: Backend::Traditional,
        };
        // Warm the cache; re-serving the identical request must hit.
        let cold = svc.serve(std::slice::from_ref(&base), &mut Journal::off()).expect("serves");
        prop_assert_eq!(cold.responses[0].outcome, Outcome::Miss);
        let warm = svc.serve(std::slice::from_ref(&base), &mut Journal::off()).expect("serves");
        prop_assert_eq!(warm.responses[0].outcome, Outcome::Hit);
        // One perturbation per key component. The cap nudge stays
        // admissible and cannot collide after admission: both caps are
        // in-range, and min(cap + 5, budget) > cap for cap < budget.
        let perturbed = [
            Request { spec: Algorithm::Slice.default_spec(), ..base.clone() },
            Request { size: 8, ..base.clone() },
            Request { cap: base.cap + Watts(5.0), ..base.clone() },
            Request { backend: Backend::Dpp, ..base.clone() },
        ];
        for req in perturbed {
            let out = svc.serve(std::slice::from_ref(&req), &mut Journal::off()).expect("serves");
            prop_assert_eq!(
                out.responses[0].outcome,
                Outcome::Miss,
                "perturbed request must not reuse {:?}: {:?}",
                base,
                req
            );
            prop_assert!(out.responses[0].key != cold.responses[0].key);
        }
    }

    #[test]
    fn seeded_runs_replay_byte_identically_across_worker_counts(
        first in prop::collection::vec(request(), 1..10),
        second in prop::collection::vec(request(), 1..10),
        seed in 0u64..1_000_000,
        workers_a in 1usize..5,
        workers_b in 1usize..5,
        cache_slots in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
    ) {
        // Two calls on one service: the second starts with residents
        // (some evicted when slot-capped) and natives the first computed.
        let run = |workers: usize| {
            let mut svc = StudyService::new(ServiceConfig {
                cache_slots,
                ..config(2, workers, 4, 90.0, seed)
            })
            .expect("a 90 W share is feasible");
            let mut journal = Journal::with_capacity(1 << 12);
            let reports = [&first, &second].map(|traffic| {
                let out = svc.serve(traffic, &mut journal).expect("serves");
                format!("{:?}", out.report)
            });
            (reports, journal.to_jsonl())
        };
        let (report_a, journal_a) = run(workers_a);
        let (report_b, journal_b) = run(workers_b);
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(journal_a, journal_b);
    }

    #[test]
    fn zipf_traffic_is_seed_deterministic(
        seed in 0u64..1_000_000,
        requests in 1usize..200,
        s in 0.8f64..1.5,
    ) {
        let u = quick_universe();
        let cfg = TrafficConfig { requests, zipf_s: s, seed };
        let a = zipf_traffic(&u, cfg);
        let b = zipf_traffic(&u, cfg);
        prop_assert_eq!(a.len(), requests);
        let ids = |t: &[Request]| t.iter().map(request_id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&a), ids(&b), "same config replays identically");
    }

    #[test]
    fn zipf_rank_binned_frequencies_decay_monotonically(
        seed in 0u64..1_000_000,
        s in 0.8f64..1.5,
    ) {
        let u = quick_universe();
        let cfg = TrafficConfig { requests: 6000, zipf_s: s, seed };
        let traffic = zipf_traffic(&u, cfg);
        // Recover the sampler's rank order by replaying its shuffle:
        // the first draws of the same xorshift stream are the
        // Fisher–Yates swaps that assigned ranks to universe entries.
        let mut rng = XorShift::new(seed);
        let mut ranked: Vec<usize> = (0..u.len()).collect();
        for i in (1..ranked.len()).rev() {
            ranked.swap(i, rng.below(i + 1));
        }
        let mut count_at_rank = vec![0usize; u.len()];
        let by_id: std::collections::HashMap<_, _> = ranked
            .iter()
            .enumerate()
            .map(|(rank, &idx)| (request_id(&u[idx]), rank))
            .collect();
        for r in &traffic {
            count_at_rank[by_id[&request_id(r)]] += 1;
        }
        // Quartile bins over the rank axis: at 6000 draws the smallest
        // expected bin gap (s = 0.8, tail quartiles) is ≈ 4.6 σ of the
        // sampling noise, so the binned law must be non-increasing even
        // though individual adjacent ranks may jitter.
        let quarter = count_at_rank.len() / 4;
        let bins: Vec<usize> = (0..4)
            .map(|q| count_at_rank[q * quarter..(q + 1) * quarter].iter().sum())
            .collect();
        for pair in bins.windows(2) {
            prop_assert!(
                pair[0] >= pair[1],
                "rank-binned frequencies must decay: {bins:?} (s = {s})"
            );
        }
        prop_assert!(bins[0] > bins[3], "the head must beat the tail: {bins:?}");
    }

    #[test]
    fn zipf_draws_stay_inside_the_universe_with_bounded_coverage(
        seed in 0u64..1_000_000,
        requests in 1usize..400,
        s in 0.8f64..1.5,
    ) {
        let u = quick_universe();
        let ids: std::collections::HashSet<_> = u.iter().map(request_id).collect();
        let traffic = zipf_traffic(&u, TrafficConfig { requests, zipf_s: s, seed });
        let mut distinct = std::collections::HashSet::new();
        for r in &traffic {
            let id = request_id(r);
            prop_assert!(ids.contains(&id), "draw outside the universe: {r:?}");
            distinct.insert(id);
        }
        prop_assert!(!distinct.is_empty());
        prop_assert!(distinct.len() <= requests.min(u.len()));
    }
}
