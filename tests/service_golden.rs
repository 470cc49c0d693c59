//! Golden pin of the `reproduce serve --quick` study-service run: the
//! exact Zipfian traffic, classification counts, per-node totals, and
//! rendered report, plus byte-identical journals across worker counts
//! and the v8 journal span/event structure.
//!
//! Anything that moves these numbers — traffic sampler, placement hash,
//! admission clamp, cache keying, wave packing, power model — is a
//! behavioral change and must re-pin deliberately (tier-1 triage rule:
//! kernel/model changes land with their golden re-pin in the same
//! commit).

use powersim::trace::Journal;
use powersim::Watts;
use service::{universe, zipf_traffic, Request, ServiceConfig, StudyService, TrafficConfig};
use vizmesh::json;
use vizpower::StudyConfig;

/// The exact traffic `reproduce serve --quick` generates.
fn quick_traffic() -> (ServiceConfig, Vec<Request>) {
    let cfg = ServiceConfig {
        study: StudyConfig::quick(),
        ..ServiceConfig::default()
    };
    let all = universe(
        &cfg.study,
        &[8, 12],
        &[Watts(120.0), Watts(80.0), Watts(40.0)],
    );
    let traffic = zipf_traffic(
        &all,
        TrafficConfig {
            requests: 400,
            zipf_s: 1.1,
            seed: cfg.seed,
        },
    );
    (cfg, traffic)
}

#[test]
fn quick_serve_report_is_pinned() {
    let (cfg, traffic) = quick_traffic();
    assert_eq!(traffic.len(), 400);
    let mut svc = StudyService::new(cfg).expect("valid config");
    let out = svc
        .serve(&traffic, &mut Journal::off())
        .expect("traffic serves");
    let r = &out.report;
    assert_eq!(
        (r.hits, r.misses, r.coalesced),
        (296, 58, 46),
        "classification counts moved: {r:?}"
    );
    assert_eq!(r.batches, 7);
    assert_eq!(r.per_node_jobs, vec![18, 8, 15, 17]);
    assert_eq!(r.per_node_requests, vec![32, 19, 26, 27]);
    assert!(
        r.hit_rate() >= 0.5,
        "acceptance gate: quick zipfian traffic must hit >= 50% (got {:.3})",
        r.hit_rate()
    );
    assert_eq!(
        r.render(),
        "study service: 400 requests in 7 batches over 4 nodes \
         (budget 360 W fleet, 90 W/node)\n\
         \x20 outcomes: 296 hits (74.0%), 58 misses, 46 coalesced\n\
         \x20 modeled: 0.067 s total, 5932.7 req/s, latency p50 0.000 s \
         p95 0.011 s p99 0.021 s\n\
         \x20 peak window: 90.0 W across 1 jobs on node 2 (budget 90 W)\n\
         \x20 node  jobs  requests\n\
         \x20    0    18        32\n\
         \x20    1     8        19\n\
         \x20    2    15        26\n\
         \x20    3    17        27\n"
    );
}

#[test]
fn journals_are_byte_identical_across_worker_counts_and_repeats() {
    let serve_with = |workers: usize| {
        let (cfg, traffic) = quick_traffic();
        let mut svc = StudyService::new(ServiceConfig { workers, ..cfg }).expect("valid config");
        let mut journal = Journal::with_capacity(1 << 16);
        let out = svc.serve(&traffic, &mut journal).expect("traffic serves");
        (format!("{:?}", out.report), journal.to_jsonl())
    };
    let (report1, journal1) = serve_with(1);
    let (report4, journal4) = serve_with(4);
    let (report16, journal16) = serve_with(16);
    assert_eq!(report1, report4, "report must not depend on worker count");
    assert_eq!(report1, report16);
    assert_eq!(
        journal1, journal4,
        "journal must not depend on worker count"
    );
    assert_eq!(journal1, journal16);
    let (report_again, journal_again) = serve_with(4);
    assert_eq!(report4, report_again, "repeat runs replay identically");
    assert_eq!(journal4, journal_again);
}

#[test]
fn journal_carries_the_v8_service_schema() {
    let (cfg, traffic) = quick_traffic();
    let mut svc = StudyService::new(cfg).expect("valid config");
    let mut journal = Journal::with_capacity(1 << 16);
    svc.serve(&traffic, &mut journal).expect("traffic serves");
    let jsonl = journal.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    // 400 cache events + 400 service requests + 7 batch spans + rollup.
    assert_eq!(lines.len(), 808, "event count moved");
    let mut cache_events = 0usize;
    let mut service_requests = 0usize;
    let mut spans = 0usize;
    for line in &lines {
        let v = json::parse(line).expect("valid JSONL");
        assert_eq!(v["v"], 10, "schema version on every line: {line}");
        match v["ev"].as_str().expect("ev field") {
            "cache_event" => {
                cache_events += 1;
                for field in ["spec_fp", "data_fp", "cap_watts", "shard"] {
                    assert!(v[field].as_f64().is_some(), "cache_event.{field}: {line}");
                }
                assert!(
                    matches!(
                        v["outcome"].as_str(),
                        Some("hit" | "miss" | "coalesced" | "evict")
                    ),
                    "{line}"
                );
            }
            "service_request" => {
                service_requests += 1;
                assert!(v["algorithm"].as_str().is_some(), "{line}");
                assert!(
                    matches!(v["backend"].as_str(), Some("traditional" | "dpp")),
                    "{line}"
                );
                assert!(v["latency_seconds"].as_f64().is_some(), "{line}");
                assert!(v["node"].as_f64().is_some(), "{line}");
            }
            "span" => {
                spans += 1;
                assert_eq!(v["scope"], "service", "only service spans here: {line}");
            }
            other => panic!("unexpected event kind {other}: {line}"),
        }
    }
    assert_eq!(cache_events, 400);
    assert_eq!(service_requests, 400);
    assert_eq!(spans, 8);
    assert!(jsonl.contains("\"name\":\"batch:0\""));
    assert!(jsonl.contains("\"name\":\"batch:6\""));
    assert!(jsonl.contains("\"name\":\"serve:400\""));
    // Chrome export keeps the service track addressable.
    let chrome = journal.to_chrome_trace();
    assert!(chrome.contains("\"name\":\"service\""));
    assert!(chrome.contains("\"name\":\"cache_event\",\"pid\":1,\"tid\":11,"));
    assert!(chrome.contains("\"outcome\":\"miss\""));
    assert!(chrome.contains("\"outcome\":\"hit\""));
}
