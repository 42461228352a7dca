//! Per-layer metrics of one traced study: the benchmark's own timers around
//! public calls, plus the program's existing `mps_obs` counters and span
//! totals read from outside. Span totals are busy thread-seconds summed
//! over every thread, not shares of wall time.

use crate::pass::{Study, JOBS};
use crate::{Metric, ALL};
use std::collections::BTreeMap;

/// Process-global `mps_obs` state after one study.
#[derive(Default)]
pub struct Obs {
    pub counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, f64>,
}

impl Obs {
    /// Reads every counter and span total recorded since the last
    /// `mps_obs::reset()`.
    pub fn take() -> Self {
        Obs {
            counters: mps_obs::counters_snapshot().into_iter().collect(),
            spans: mps_obs::span_stats()
                .into_iter()
                .map(|s| (s.name, s.total.as_secs_f64()))
                .collect(),
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn busy(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.spans.get(*n))
            .fold(0.0, |a, b| a + b)
    }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measurements taken around the study rather than inside it.
pub struct Around {
    /// Median `StudyBuilder::build()` time, store attached if the
    /// workload has one.
    pub store_open_s: f64,
    pub trace_overhead_frac: f64,
    pub ops_failed_frac: f64,
    pub badco_cpi_max_err: f64,
}

/// The per-layer table: every metric a traced run reports.
pub fn per_layer(study: &Study, around: &Around) -> Vec<Metric> {
    let obs = &study.obs;
    let s = |d: std::time::Duration| d.as_secs_f64();
    let wall = s(study.wall);
    let cpu = s(study.cpu);
    let mut m = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));

    // Every workload reports every experiment's name: 0 s for an
    // experiment it does not run.
    for &name in ALL {
        let t = study
            .exp
            .iter()
            .find(|(e, _)| *e == name)
            .map_or(0.0, |(_, d)| s(*d));
        push(&format!("harness.exp_s.{name}"), t, "s");
    }
    push("harness.render_s", s(study.render), "s");
    let cache = &study.cache;
    push(
        "harness.ctx_hit_frac",
        ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        "frac",
    );
    push("harness.ops_failed_frac", around.ops_failed_frac, "frac");

    push("workloads.trace_s", s(study.trace), "s");
    push(
        "workloads.synth_uops",
        obs.count("workloads.synth.uops"),
        "count",
    );

    let badco_busy = obs.busy(&["sim.badco.run"]);
    // BADCO training runs the detailed kernel through `record_run`, whose
    // instructions `sim.detailed.instructions` does not count.
    let record_busy = obs.busy(&["sim.detailed.record_run"]);
    let badco_instr = obs.count("sim.badco.instructions");
    push("badco.train_s", s(study.train), "s");
    push(
        "badco.training_uops",
        obs.count("badco.model.training_uops"),
        "count",
    );
    push("badco.train_busy_s", record_busy, "s");
    push("badco.sim_s", s(study.badco_sim), "s");
    push("badco.busy_s", badco_busy, "s");
    push("badco.runs", obs.count("sim.badco.runs"), "count");
    push("badco.instructions", badco_instr, "count");
    push(
        "badco.minstr_per_s",
        ratio(badco_instr / 1e6, badco_busy),
        "Minstr/s",
    );
    push("badco_cpi_max_err", around.badco_cpi_max_err, "frac");

    // The speed divides by the spans whose instructions
    // `sim.detailed.instructions` counts, so training stays out of it.
    let kernel_busy = obs.busy(&["sim.detailed.run_batch", "sim.detailed.run"]);
    let detailed_busy = kernel_busy + record_busy;
    let detailed_instr = obs.count("sim.detailed.instructions");
    let executed = obs.count("batch.cycles_executed");
    push("sim_cpu.busy_s", detailed_busy, "s");
    push("sim_cpu.instructions", detailed_instr, "count");
    push("sim_cpu.cycles", obs.count("sim.detailed.cycles"), "count");
    push(
        "sim_cpu.core_ticks",
        obs.count("sim.detailed.core_ticks"),
        "count",
    );
    push(
        "sim_cpu.minstr_per_s",
        ratio(detailed_instr / 1e6, kernel_busy),
        "Minstr/s",
    );
    push(
        "sim_cpu.ticked_frac",
        ratio(executed, executed + obs.count("batch.cycles_skipped")),
        "frac",
    );
    push(
        "sim_cpu.lanes_per_batch",
        ratio(obs.count("batch.lane_runs"), obs.count("batch.runs")),
        "lanes",
    );

    push(
        "uncore.llc_accesses",
        obs.count("uncore.llc.accesses"),
        "count",
    );
    push("uncore.llc_misses", obs.count("uncore.llc.misses"), "count");

    let resample = obs.busy(&["estimate.empirical_confidence"]);
    let evaluated = obs.count("estimate.workloads_evaluated");
    push("sampling.resample_s", resample, "s");
    push("sampling.workloads_evaluated", evaluated, "count");
    push(
        "sampling.workloads_per_s",
        ratio(evaluated, resample),
        "1/s",
    );

    let calls = obs.count("par.calls");
    push("par.calls", calls, "count");
    push("par.items", obs.count("par.items"), "count");
    push(
        "par.imbalance_permille_mean",
        ratio(obs.count("par.imbalance_permille"), calls),
        "permille",
    );
    push("par.busy_frac", ratio(cpu, wall * JOBS as f64), "frac");

    let store = study.store.unwrap_or_default();
    push("store.open_s", around.store_open_s, "s");
    push("store.hits", store.hits as f64, "count");
    push("store.misses", store.misses as f64, "count");
    push("store.puts", store.puts as f64, "count");
    push("store.disk_bytes", study.disk_bytes as f64, "B");

    push(
        "obs.trace_overhead_frac",
        around.trace_overhead_frac,
        "frac",
    );
    m
}
