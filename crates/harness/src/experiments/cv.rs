//! Figures 4 and 5: the inverse coefficient of variation `1/cv`.
//!
//! `1/cv = µ/σ` of the per-workload difference `d(w)` is the paper's
//! effect-size summary: its sign says which policy of a pair wins, its
//! magnitude how few workloads are needed to see it. Figure 4 compares
//! three estimates (detailed 250-workload sample, BADCO on the same
//! sample, BADCO on the full population) for each pair under each metric;
//! Figure 5 shows the population values for all three metrics.

use crate::runner::StudyContext;
use mps_metrics::{pair_comparison, ThroughputMetric};
use mps_sampling::Workload;
use mps_uncore::PolicyKind;

/// `1/cv` estimates for one policy pair under one metric.
///
/// Orientation follows the paper's figure labels: the row for pair
/// "A>B" has positive `1/cv` when A outperforms B.
#[derive(Debug, Clone, PartialEq)]
pub struct InvCvRow {
    /// First-named policy (positive `1/cv` means it wins).
    pub x: PolicyKind,
    /// Second-named policy.
    pub y: PolicyKind,
    /// Metric.
    pub metric: ThroughputMetric,
    /// `1/cv` from the detailed simulator on the sample (None for Fig. 5).
    pub detailed_sample: Option<f64>,
    /// `1/cv` from BADCO on the same sample (None for Fig. 5).
    pub badco_sample: Option<f64>,
    /// `1/cv` from BADCO on the whole population.
    pub badco_population: f64,
}

/// The Figure 4/5 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct InvCvReport {
    /// Figure number (4 or 5), for rendering.
    pub figure: u8,
    /// One row per (pair, metric).
    pub rows: Vec<InvCvRow>,
}

impl InvCvReport {
    /// Looks a row up by pair and metric.
    pub fn row(&self, x: PolicyKind, y: PolicyKind, metric: ThroughputMetric) -> Option<&InvCvRow> {
        self.rows
            .iter()
            .find(|r| r.x == x && r.y == y && r.metric == metric)
    }

    /// Fraction of rows where the sample estimates agree in sign with the
    /// population estimate (qualitative accuracy of the approximations).
    pub fn sign_agreement(&self) -> f64 {
        let relevant: Vec<&InvCvRow> = self
            .rows
            .iter()
            .filter(|r| r.badco_sample.is_some())
            .collect();
        if relevant.is_empty() {
            return 1.0;
        }
        let agreeing = relevant
            .iter()
            .filter(|r| r.badco_sample.unwrap().signum() == r.badco_population.signum())
            .count();
        agreeing as f64 / relevant.len() as f64
    }
}

impl std::fmt::Display for InvCvReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.figure == 4 {
            writeln!(
                f,
                "FIGURE 4. 1/cv per policy pair and metric: detailed sample vs BADCO sample vs BADCO population."
            )?;
            writeln!(
                f,
                "{:<14} {:>6} {:>16} {:>14} {:>14}",
                "pair", "metric", "detailed-sample", "BADCO-sample", "BADCO-popul."
            )?;
        } else {
            writeln!(f, "FIGURE 5. 1/cv on the population for the 3 metrics.")?;
            writeln!(f, "{:<14} {:>6} {:>14}", "pair", "metric", "1/cv")?;
        }
        for r in &self.rows {
            let pair = format!("{}>{}", r.x, r.y);
            if self.figure == 4 {
                writeln!(
                    f,
                    "{:<14} {:>6} {:>16.3} {:>14.3} {:>14.3}",
                    pair,
                    r.metric.to_string(),
                    r.detailed_sample.unwrap_or(f64::NAN),
                    r.badco_sample.unwrap_or(f64::NAN),
                    r.badco_population
                )?;
            } else {
                writeln!(
                    f,
                    "{:<14} {:>6} {:>14.3}",
                    pair,
                    r.metric.to_string(),
                    r.badco_population
                )?;
            }
        }
        Ok(())
    }
}

/// Figure 4: `1/cv` for all 10 policy pairs × 3 metrics on 4 cores, from
/// the detailed sample, the BADCO sample, and the BADCO population.
pub fn fig4(ctx: &StudyContext) -> Result<InvCvReport, mps_store::Error> {
    let cores = 4;
    // The detailed sample: `detailed_sample` random workloads.
    let pop = ctx.population(cores)?;
    let mut rng = ctx.rng(0xF164);
    let sample_size = ctx.scale.detailed_sample.min(pop.len());
    let idx = rng.sample_indices(pop.len(), sample_size);
    let sample: Vec<Workload> = idx.iter().map(|&i| pop.workloads()[i].clone()).collect();

    // Detailed tables per policy over the sample, all in one fan-out.
    let policies = ctx.policies();
    let detailed_t: std::collections::HashMap<_, _> = policies
        .into_iter()
        .zip(ctx.detailed_tables(cores, &policies, &sample)?)
        .collect();

    let mut rows = Vec::new();
    for (x, y) in ctx.policy_pairs() {
        for metric in ThroughputMetric::PAPER_METRICS {
            // Paper label orientation: positive favours the first-named
            // policy, so the first-named plays the role of "Y" in d(w).
            let det = pair_comparison(
                metric,
                &detailed_t[&y].throughputs(metric),
                &detailed_t[&x].throughputs(metric),
            )
            .inv_cv;
            let tx = ctx.badco_table(cores, y)?.throughputs(metric);
            let ty = ctx.badco_table(cores, x)?.throughputs(metric);
            let bad_sample = pair_comparison(
                metric,
                &idx.iter().map(|&i| tx[i]).collect::<Vec<_>>(),
                &idx.iter().map(|&i| ty[i]).collect::<Vec<_>>(),
            )
            .inv_cv;
            let bad_pop = pair_comparison(metric, &tx, &ty).inv_cv;
            rows.push(InvCvRow {
                x,
                y,
                metric,
                detailed_sample: Some(det),
                badco_sample: Some(bad_sample),
                badco_population: bad_pop,
            });
        }
    }
    Ok(InvCvReport { figure: 4, rows })
}

/// Figure 5: `1/cv` on the BADCO population for all pairs × metrics.
pub fn fig5(ctx: &StudyContext) -> Result<InvCvReport, mps_store::Error> {
    let cores = 4;
    let mut rows = Vec::new();
    for (x, y) in ctx.policy_pairs() {
        for metric in ThroughputMetric::PAPER_METRICS {
            let cmp = ctx.badco_pair_data(cores, y, x, metric)?.comparison();
            rows.push(InvCvRow {
                x,
                y,
                metric,
                detailed_sample: None,
                badco_sample: None,
                badco_population: cmp.inv_cv,
            });
        }
    }
    Ok(InvCvReport { figure: 5, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn fig5_covers_all_pairs_and_metrics() {
        let ctx = StudyContext::new(Scale::test());
        let rep = fig5(&ctx).unwrap();
        assert_eq!(rep.rows.len(), 30);
        assert!(rep.to_string().contains("FIGURE 5"));
        // Every value finite or infinite-with-sign, never NaN-printed rows
        // beyond genuinely equivalent pairs.
        let finite = rep
            .rows
            .iter()
            .filter(|r| r.badco_population.is_finite())
            .count();
        assert!(finite >= 20, "finite rows: {finite}");
    }

    #[test]
    fn fig5_rows_are_meaningful_at_test_scale() {
        // Direction checks need steady-state reuse, which the tiny test
        // scale cannot provide (see the ignored test below); here we only
        // require that policies genuinely differentiate.
        let ctx = StudyContext::new(Scale::test());
        let rep = fig5(&ctx).unwrap();
        let wsu = ThroughputMetric::WeightedSpeedup;
        let lru_rnd = rep
            .row(PolicyKind::Lru, PolicyKind::Random, wsu)
            .unwrap()
            .badco_population;
        assert!(lru_rnd.is_finite() && lru_rnd != 0.0, "1/cv = {lru_rnd}");
    }

    #[test]
    #[ignore = "slow: run with --ignored for the full shape check"]
    fn fig5_shape_matches_paper_at_default_scale() {
        // The paper's strongest findings: LRU clearly outperforms RANDOM
        // and FIFO, and DRRIP edges out DIP (positive value = first-named
        // policy wins).
        let ctx = StudyContext::new(Scale::small());
        let rep = fig5(&ctx).unwrap();
        for metric in ThroughputMetric::PAPER_METRICS {
            let v = rep
                .row(PolicyKind::Lru, PolicyKind::Random, metric)
                .unwrap()
                .badco_population;
            assert!(v > 0.0, "LRU must beat RANDOM under {metric}: {v}");
            let v = rep
                .row(PolicyKind::Lru, PolicyKind::Fifo, metric)
                .unwrap()
                .badco_population;
            assert!(v > 0.0, "LRU must beat FIFO under {metric}: {v}");
            let v = rep
                .row(PolicyKind::Dip, PolicyKind::Drrip, metric)
                .unwrap()
                .badco_population;
            assert!(v < 0.0, "DRRIP must beat DIP under {metric}: {v}");
        }
    }
}
