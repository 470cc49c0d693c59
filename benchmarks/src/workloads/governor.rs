//! `governor32`: the closed-loop budget sweep with a live journal.

use std::collections::BTreeMap;
use std::time::Instant;

use governor::{
    budget_sweep, budgets, coupled_pair, govern, sweep_pair, Policy, Reactive, StaticAdvisor,
    Uniform,
};
use powersim::trace::Journal;
use powersim::CpuSpec;
use vizalgo::Fnv1a;

use crate::stats::median;

use super::{Ctx, Layers, Scale, Workload};

const JOURNAL_CAPACITY: usize = 1 << 20;

pub struct Governor {
    grid_cells: usize,
    cpu: CpuSpec,
    /// Simulated seconds summed over the sweep's rows; fixed for a given
    /// grid, learnt from the first pass.
    simulated_s: f64,
}

impl Governor {
    pub fn new(scale: Scale) -> Governor {
        Governor {
            grid_cells: match scale {
                Scale::Full => 32,
                Scale::Smoke => 8,
            },
            cpu: CpuSpec::broadwell_e5_2695v4(),
            simulated_s: 0.0,
        }
    }

    fn sweep(&self, journal: &mut Journal) -> f64 {
        let t = Instant::now();
        std::hint::black_box(budget_sweep(self.grid_cells, &self.cpu, journal));
        std::hint::black_box(journal.to_jsonl());
        t.elapsed().as_secs_f64()
    }
}

impl Workload for Governor {
    fn pass(&mut self, cx: &mut Ctx) -> u64 {
        let mut journal = Journal::with_capacity(JOURNAL_CAPACITY);
        let sweep = cx.rec.span("governor.budget_sweep", || {
            budget_sweep(self.grid_cells, &self.cpu, &mut journal)
        });
        let jsonl = cx.rec.span("powersim.trace.jsonl", || journal.to_jsonl());

        let mut h = Fnv1a::new();
        let mut simulated_s = 0.0;
        for row in &sweep.rows {
            h.update_f64(row.seconds);
            h.update_f64(row.energy_joules.value());
            h.update_u64(row.decisions);
            h.update_u64(row.cap_changes);
            simulated_s += row.seconds;
            cx.add("governor.decisions", row.decisions as f64);
        }
        h.update_u64(journal.len() as u64);
        h.update_u64(jsonl.len() as u64);
        self.simulated_s = simulated_s;
        cx.add("powersim.trace.events", journal.len() as f64);
        cx.add("powersim.trace.dropped", journal.dropped() as f64);
        h.finish48()
    }

    /// Simulated seconds per pass (so `work_per_s` reads simulated
    /// seconds per host second). Known after the first pass.
    fn work_units(&self) -> f64 {
        self.simulated_s
    }

    fn derive(&self, totals: &BTreeMap<&'static str, f64>, _cx: &Ctx, layers: &mut Layers) {
        if let Some(&s) = totals.get("governor.budget_sweep") {
            if s > 0.0 {
                layers
                    .entry("powersim.sim_s_per_host_s")
                    .or_default()
                    .push(self.simulated_s / s);
            }
        }
    }

    /// The sweep's two halves timed apart, one governed run, the chrome
    /// serializer, and what the live journal costs against `Journal::off`.
    fn trace_extras(&mut self, cx: &mut Ctx, _untraced_pass_s: f64, layers: &mut Layers) {
        let mut push = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);
        let mut journaled = Vec::new();
        let mut unjournaled = Vec::new();
        for _ in 0..3 {
            let mut journal = Journal::with_capacity(JOURNAL_CAPACITY);
            let t = Instant::now();
            let pair = cx.rec.span("governor.coupled_pair", || {
                coupled_pair(self.grid_cells, &self.cpu)
            });
            push("governor.coupled_pair_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            cx.rec.span("governor.sweep_pair", || {
                std::hint::black_box(sweep_pair(&pair, &budgets(), &self.cpu, &mut journal))
            });
            push("governor.sweep_pair_s", t.elapsed().as_secs_f64());

            // Mean time of one governed run: the three online policies at every budget.
            let t = Instant::now();
            let mut runs = 0u32;
            for &budget in &budgets() {
                let mut policies: [Box<dyn Policy>; 3] = [
                    Box::new(Uniform::new()),
                    Box::new(StaticAdvisor::new()),
                    Box::new(Reactive::new()),
                ];
                for policy in policies.iter_mut() {
                    cx.rec.span("governor.govern", || {
                        std::hint::black_box(govern(
                            &pair,
                            policy.as_mut(),
                            budget,
                            &self.cpu,
                            &mut journal,
                        ))
                    });
                    runs += 1;
                }
            }
            push("governor.govern_s", t.elapsed().as_secs_f64() / runs as f64);

            let t = Instant::now();
            cx.rec.span("powersim.trace.chrome", || {
                std::hint::black_box(journal.to_chrome_trace())
            });
            push("powersim.trace.chrome_s", t.elapsed().as_secs_f64());

            journaled.push(self.sweep(&mut Journal::with_capacity(JOURNAL_CAPACITY)));
            unjournaled.push(self.sweep(&mut Journal::off()));
        }
        let off = median(&unjournaled);
        if off > 0.0 {
            push(
                "governor.journal_overhead_rel",
                (median(&journaled) - off) / off,
            );
        }
    }
}
