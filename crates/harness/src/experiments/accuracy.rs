//! Table III (simulation speed) and Figure 2 (CPI accuracy).

use crate::runner::StudyContext;
use mps_store::Error;
use mps_uncore::PolicyKind;
use std::fmt::Write as _;

/// Simulation speeds for one core count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedRow {
    /// Core count.
    pub cores: usize,
    /// Detailed-simulator speed in MIPS.
    pub detailed_mips: f64,
    /// BADCO speed in MIPS.
    pub badco_mips: f64,
}

impl SpeedRow {
    /// BADCO speedup over the detailed simulator.
    pub fn speedup(&self) -> f64 {
        self.badco_mips / self.detailed_mips
    }
}

/// The Table III reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedReport {
    /// One row per core count (1, 2, 4, 8).
    pub rows: Vec<SpeedRow>,
}

impl std::fmt::Display for SpeedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "TABLE III. BADCO AVERAGE SIMULATION SPEEDUP.")?;
        write!(f, "{:<18}", "Number of cores")?;
        for r in &self.rows {
            write!(f, "{:>10}", r.cores)?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "MIPS - detailed")?;
        for r in &self.rows {
            write!(f, "{:>10.3}", r.detailed_mips)?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "MIPS - BADCO")?;
        for r in &self.rows {
            write!(f, "{:>10.3}", r.badco_mips)?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "Speedup")?;
        for r in &self.rows {
            write!(f, "{:>10.1}", r.speedup())?;
        }
        writeln!(f)
    }
}

/// Measures both simulators' speed on 1-, 2-, 4- and 8-core workloads
/// (averaged over a few random workloads per core count).
pub fn table3(ctx: &StudyContext) -> Result<SpeedReport, Error> {
    let mut rows = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let uncore_cores = cores.max(2);
        let space = mps_sampling::WorkloadSpace::new(22, cores);
        let mut rng = ctx.rng(0x7AB1E3 ^ cores as u64);
        let reps = 3;
        let (mut det_i, mut det_t) = (0u64, 0.0f64);
        let (mut bad_i, mut bad_t) = (0u64, 0.0f64);
        for _ in 0..reps {
            let w = space.random_workload(&mut rng);
            let det = ctx.detailed_run(uncore_cores, PolicyKind::Lru, &w)?;
            det_i += det.instructions;
            det_t += det.wall_seconds;
            let models = ctx.models(uncore_cores)?;
            let bound: Vec<_> = w
                .benchmarks()
                .iter()
                .map(|&b| std::sync::Arc::clone(&models[b as usize]))
                .collect();
            let uncore = mps_uncore::Uncore::new(
                crate::runner::experiment_uncore(uncore_cores, PolicyKind::Lru),
                w.cores(),
            );
            let bad = mps_badco::BadcoMulticoreSim::new(uncore, bound).run();
            bad_i += bad.instructions;
            bad_t += bad.wall_seconds;
        }
        rows.push(SpeedRow {
            cores,
            detailed_mips: det_i as f64 / det_t / 1e6,
            badco_mips: bad_i as f64 / bad_t / 1e6,
        });
    }
    Ok(SpeedReport { rows })
}

/// One CPI comparison point (one thread of one workload).
#[derive(Debug, Clone, PartialEq)]
pub struct CpiPoint {
    /// Core count of the workload.
    pub cores: usize,
    /// Benchmark name of the thread.
    pub benchmark: String,
    /// CPI measured with the detailed simulator.
    pub detailed_cpi: f64,
    /// CPI predicted by BADCO.
    pub badco_cpi: f64,
}

impl CpiPoint {
    /// Signed relative error of the BADCO prediction.
    pub fn relative_error(&self) -> f64 {
        (self.badco_cpi - self.detailed_cpi) / self.detailed_cpi
    }
}

/// The Figure 2 reproduction: detailed vs BADCO CPI over random workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiAccuracyReport {
    /// All comparison points.
    pub points: Vec<CpiPoint>,
}

impl CpiAccuracyReport {
    /// Mean absolute relative CPI error for one core count.
    pub fn mean_error(&self, cores: usize) -> f64 {
        let errs: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.cores == cores)
            .map(|p| p.relative_error().abs())
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    /// Maximum absolute relative CPI error across all points.
    pub fn max_error(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.relative_error().abs())
            .fold(0.0, f64::max)
    }

    /// The core counts present.
    pub fn core_counts(&self) -> Vec<usize> {
        let mut ks: Vec<usize> = self.points.iter().map(|p| p.cores).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }
}

impl std::fmt::Display for CpiAccuracyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "FIGURE 2. Detailed CPI vs. BADCO CPI (scatter data).")?;
        writeln!(
            f,
            "{:>6} {:<12} {:>14} {:>12} {:>8}",
            "cores", "benchmark", "detailed CPI", "BADCO CPI", "err%"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6} {:<12} {:>14.3} {:>12.3} {:>+8.1}",
                p.cores,
                p.benchmark,
                p.detailed_cpi,
                p.badco_cpi,
                p.relative_error() * 100.0
            )?;
        }
        let mut s = String::new();
        for k in self.core_counts() {
            let _ = write!(s, "{} cores: {:.2}%  ", k, self.mean_error(k) * 100.0);
        }
        writeln!(f, "average CPI error: {s}")?;
        writeln!(f, "maximum CPI error: {:.2}%", self.max_error() * 100.0)
    }
}

/// Runs `accuracy_workloads` random workloads per core count through both
/// simulators under LRU and compares per-thread CPIs (paper Figure 2).
pub fn fig2(ctx: &StudyContext) -> Result<CpiAccuracyReport, Error> {
    let n_workloads = ctx.scale.accuracy_workloads;
    let mut drawn = Vec::new();
    for cores in [2usize, 4] {
        let space = mps_sampling::WorkloadSpace::new(22, cores);
        let mut rng = ctx.rng(0xF162 ^ cores as u64);
        for _ in 0..n_workloads.div_ceil(2) {
            drawn.push((cores, space.random_workload(&mut rng)));
        }
    }
    let cells: Vec<_> = drawn
        .iter()
        .map(|(cores, w)| (*cores, PolicyKind::Lru, w))
        .collect();
    let runs = ctx.detailed_runs(&cells)?;
    let mut points = Vec::new();
    for ((cores, w), det) in drawn.iter().zip(runs) {
        let bad = ctx.badco_run(*cores, PolicyKind::Lru, w)?;
        for (k, &b) in w.benchmarks().iter().enumerate() {
            points.push(CpiPoint {
                cores: *cores,
                benchmark: ctx.suite()[b as usize].name().to_owned(),
                detailed_cpi: 1.0 / det.ipc[k],
                badco_cpi: 1.0 / bad[k],
            });
        }
    }
    Ok(CpiAccuracyReport { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn cpi_point_error_math() {
        let p = CpiPoint {
            cores: 2,
            benchmark: "x".into(),
            detailed_cpi: 2.0,
            badco_cpi: 2.2,
        };
        assert!((p.relative_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fig2_produces_points_for_both_core_counts() {
        let ctx = StudyContext::new(Scale::test());
        let rep = fig2(&ctx).unwrap();
        assert!(!rep.points.is_empty());
        assert_eq!(rep.core_counts(), vec![2, 4]);
        // Approximate-simulator sanity at tiny scale: CPIs correlate.
        assert!(rep.mean_error(2) < 1.0, "mean error {}", rep.mean_error(2));
        let text = rep.to_string();
        assert!(text.contains("FIGURE 2"));
    }

    #[test]
    fn table3_reports_positive_speeds() {
        let ctx = StudyContext::new(Scale::test());
        let rep = table3(&ctx).unwrap();
        assert_eq!(rep.rows.len(), 4);
        for r in &rep.rows {
            assert!(r.detailed_mips > 0.0);
            assert!(r.badco_mips > 0.0);
        }
        assert!(rep.to_string().contains("TABLE III"));
    }
}
