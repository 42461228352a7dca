//! Energy comparison of the LLC policies (the §VII motivation).
//!
//! The paper keeps detailed simulation in the loop because it yields what
//! the approximate simulator cannot — e.g. power, "to find if the extra
//! hardware complexity is worth the performance gain". This experiment
//! answers exactly that question for the case study: per policy, the
//! detailed simulator's event counters drive the energy model, reporting
//! energy per instruction next to performance.

use crate::runner::StudyContext;
use mps_sim_cpu::{energy_of_run, EnergyModel};
use mps_uncore::PolicyKind;

/// One policy's performance/energy summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// The LLC policy.
    pub policy: PolicyKind,
    /// Mean IPC across the sampled workloads' threads.
    pub mean_ipc: f64,
    /// Energy per instruction in picojoules.
    pub pj_per_instruction: f64,
    /// DRAM share of total energy.
    pub dram_share: f64,
}

/// The energy experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Workloads sampled.
    pub workloads: usize,
    /// One row per policy, paper order.
    pub rows: Vec<EnergyRow>,
}

impl std::fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ENERGY. Detailed-simulation energy per policy over {} random 2-core workloads.",
            self.workloads
        )?;
        writeln!(
            f,
            "{:<8} {:>10} {:>12} {:>12}",
            "policy", "mean IPC", "pJ/instr", "DRAM share"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>10.3} {:>12.1} {:>11.1}%",
                r.policy.to_string(),
                r.mean_ipc,
                r.pj_per_instruction,
                r.dram_share * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the energy comparison on a small random 2-core workload sample.
pub fn energy(ctx: &StudyContext) -> Result<EnergyReport, mps_store::Error> {
    let cores = 2;
    let pop = ctx.population(cores)?;
    let mut rng = ctx.rng(0xE6E);
    let sample: Vec<_> = rng
        .sample_indices(pop.len(), ctx.scale.accuracy_workloads.min(pop.len()))
        .into_iter()
        .map(|i| pop.workloads()[i].clone())
        .collect();
    let model = EnergyModel::nominal();
    let policies = ctx.policies();
    let cells: Vec<_> = policies
        .iter()
        .flat_map(|&policy| sample.iter().map(move |w| (cores, policy, w)))
        .collect();
    let runs = ctx.detailed_runs(&cells)?;
    let n = sample.len();
    let rows = policies
        .into_iter()
        .enumerate()
        .map(|(pi, policy)| {
            let runs = &runs[pi * n..(pi + 1) * n];
            let mut ipc_acc = 0.0;
            let mut ipc_n = 0usize;
            let mut pj_acc = 0.0;
            let mut dram_acc = 0.0;
            for r in runs {
                ipc_acc += r.ipc.iter().sum::<f64>();
                ipc_n += r.ipc.len();
                let e = energy_of_run(&model, r);
                pj_acc += e.pj_per_instruction(r.instructions);
                dram_acc += e.dram_nj / e.total_nj();
            }
            EnergyRow {
                policy,
                mean_ipc: ipc_acc / ipc_n as f64,
                pj_per_instruction: pj_acc / sample.len() as f64,
                dram_share: dram_acc / sample.len() as f64,
            }
        })
        .collect();
    Ok(EnergyReport {
        workloads: sample.len(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn energy_report_covers_all_policies() {
        let ctx = StudyContext::new(Scale::test());
        let rep = energy(&ctx).unwrap();
        assert_eq!(rep.rows.len(), 5);
        for r in &rep.rows {
            assert!(r.mean_ipc > 0.0, "{}", r.policy);
            assert!(r.pj_per_instruction > 0.0, "{}", r.policy);
            assert!((0.0..=1.0).contains(&r.dram_share), "{}", r.policy);
        }
        assert!(rep.to_string().contains("ENERGY"));
    }
}
