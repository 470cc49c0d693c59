//! Golden tests for the closed-loop governor's 32³ budget sweep: the
//! journal must be byte-identical across runs and thread counts,
//! every journaled decision must respect the node budget and hardware
//! cap range, and the Reactive policy must beat the Uniform baseline on
//! pair completion time at every budget at or below 160 W (the regime
//! where the uniform split leaves the simulation power-starved).

use governor::BudgetSweep;
use powersim::trace::{Event, Journal, Kind, Scope};
use powersim::{CpuSpec, Watts};
use vizmesh::par;

fn spec() -> CpuSpec {
    CpuSpec::broadwell_e5_2695v4()
}

/// Run the 32³ budget sweep under a `par::with_threads(num_threads)`,
/// returning the sweep table and the serialized journal.
fn run_sweep(threads: usize) -> (BudgetSweep, String) {
    par::with_threads(threads, || {
        let mut journal = Journal::with_capacity(1 << 16);
        let sweep = governor::budget_sweep(32, &spec(), &mut journal);
        assert_eq!(journal.dropped(), 0, "golden run must not drop events");
        (sweep, journal.to_jsonl())
    })
}

#[test]
fn budget_sweep_table_and_policy_ordering() {
    let (sweep, jsonl) = run_sweep(2);
    assert_eq!(sweep.rows.len(), 36, "9 budgets x 4 policies");
    assert!(!jsonl.is_empty());
    // An absolute pin on the rendered table: every column it derives
    // from the governed runs, to the printed digit.
    let table = governor::render_table(&sweep);
    assert_eq!(vizalgo::fingerprint48(table.as_bytes()), 0xd109_34e3_92e0);

    for budget in governor::budgets() {
        let seconds = |policy: &str| {
            sweep
                .row(budget, policy)
                .map(|r| r.seconds)
                .unwrap_or(f64::NAN)
        };
        let uniform = seconds("uniform");
        let advisor = seconds("static-advisor");
        let reactive = seconds("reactive");
        let oracle = seconds("oracle");
        // The acceptance bar: closed-loop reactive strictly beats the
        // naive split whenever the budget actually constrains the pair.
        if budget <= Watts(160.0) {
            assert!(
                reactive < uniform,
                "at {budget} W: reactive {reactive} !< uniform {uniform}"
            );
        } else {
            assert!(
                reactive <= uniform * (1.0 + 1e-9),
                "at {budget} W: reactive {reactive} > uniform {uniform}"
            );
        }
        // The oracle is the best *static* split: it bounds the static
        // policies (reactive may beat it via retirement reassignment).
        assert!(
            oracle <= uniform * (1.0 + 1e-9),
            "at {budget} W: oracle {oracle} > uniform {uniform}"
        );
        assert!(
            oracle <= advisor * (1.0 + 1e-9),
            "at {budget} W: oracle {oracle} > static-advisor {advisor}"
        );
        // No policy's node power ever exceeded the budget in any window.
        for policy in ["uniform", "static-advisor", "reactive", "oracle"] {
            let row = sweep.row(budget, policy).expect("row present");
            assert!(
                row.max_window_power_watts <= budget + Watts(0.5),
                "{policy} at {budget} W drew {} W in a window",
                row.max_window_power_watts
            );
            assert!(row.seconds > 0.0 && row.decisions > 0);
        }
    }
}

#[test]
fn journal_is_byte_identical_across_runs_and_thread_counts() {
    let (_, first) = run_sweep(1);
    let (_, again) = run_sweep(1);
    assert_eq!(first, again, "repeat run must match byte-for-byte");
    let (_, pooled) = run_sweep(4);
    assert_eq!(first, pooled, "thread count must not change the journal");
    // An absolute pin: a power-model change that moves any number moves
    // this, even when every run still agrees with every other.
    assert_eq!(vizalgo::fingerprint48(first.as_bytes()), 0x8eca_228f_492d);
}

#[test]
fn every_journaled_decision_respects_budget_and_cap_range() {
    let journal = par::with_threads(2, || {
        let mut journal = Journal::with_capacity(1 << 16);
        let _ = governor::budget_sweep(32, &spec(), &mut journal);
        journal
    });
    let spec = spec();
    let lo = spec.min_cap_watts;
    let hi = spec.tdp_watts;

    let mut decisions = 0u64;
    for d in journal.records(Kind::PolicyDecision) {
        let watts = |key| Watts(d.num(key).expect("decision field"));
        let budget = watts("budget_watts");
        decisions += 1;
        // Observed node power never exceeds the decision's budget.
        assert!(
            watts("sim_power_watts") + watts("viz_power_watts") <= budget + Watts(0.5),
            "window power {} + {} over budget {budget}",
            watts("sim_power_watts"),
            watts("viz_power_watts")
        );
        // Caps are 0 W (retired side) or inside the hardware
        // range, and active caps fit the budget.
        let mut active_total = Watts::ZERO;
        for cap in [watts("sim_cap_watts"), watts("viz_cap_watts")] {
            if cap > Watts(1e-9) {
                assert!(
                    cap >= lo - Watts(1e-9) && cap <= hi + Watts(1e-9),
                    "cap {cap} outside [{lo}, {hi}]"
                );
                active_total += cap;
            }
        }
        assert!(
            active_total <= budget + Watts(1e-9),
            "caps {active_total} exceed budget {budget}"
        );
    }
    let governor_spans = journal
        .events()
        .filter(|e| matches!(e, Event::Span(s) if s.scope == Scope::Governor))
        .count();
    assert!(decisions > 100, "sweep produced only {decisions} decisions");
    assert_eq!(governor_spans, 36, "one governor span per (budget, policy)");
}

#[test]
fn uniform_policy_first_decision_is_the_even_split() {
    let spec = spec();
    let pair = governor::coupled_pair(16, &spec);
    for budget in [Watts(100.0), Watts(160.0), Watts(220.0)] {
        let mut journal = Journal::with_capacity(1 << 14);
        let _ = governor::govern(
            &pair,
            &mut governor::Uniform::new(),
            budget,
            &spec,
            &mut journal,
        );
        let first = (journal.records(Kind::PolicyDecision).next()).expect("at least one decision");
        let per = (budget / 2.0).clamp(spec.min_cap_watts, spec.tdp_watts);
        assert_eq!(first.num("sim_cap_watts"), Some(per.value()));
        assert_eq!(first.num("viz_cap_watts"), Some(per.value()));
    }
}
