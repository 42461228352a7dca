//! Figures 1, 3, 6 and 7: degrees of confidence.

use crate::convergence::ConvergenceProbe;
use crate::dist::{self, CellDesc, ConfSource, DistCell, PrefetchKind};
use crate::runner::StudyContext;
use mps_metrics::ThroughputMetric;
use mps_sampling::{
    analytic_confidence, empirical_confidence_seeded, BalancedRandomSampling,
    BenchmarkStratification, PairData, RandomSampling, Sampler, WorkloadStratification,
};
use mps_store::{Checkpoint, Error};
use mps_uncore::PolicyKind;
use std::sync::Arc;

/// Builds one confidence grid cell. The RNG base is drawn at enumeration
/// time (exactly one `next_u64` per cell, same order as the
/// pre-distribution code path, so resumed, distributed and uninterrupted
/// runs all see identical streams) and travels inside the descriptor:
/// the cell's value is a pure function of the descriptor, evaluable on
/// any process.
fn confidence_cell(
    id: String,
    source: ConfSource,
    method: &str,
    w: usize,
    samples: usize,
    base: u64,
) -> DistCell {
    DistCell {
        keys: vec![id.clone()],
        id,
        desc: CellDesc::Confidence {
            source,
            method: method.to_owned(),
            w,
            samples,
            base,
        },
    }
}

/// Figure 1: the analytic confidence curve `½(1+erf(x))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Report {
    /// `(abscissa, confidence)` points.
    pub points: Vec<(f64, f64)>,
}

impl std::fmt::Display for Fig1Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FIGURE 1. Degree of confidence as a function of (1/cv)·sqrt(W/2)."
        )?;
        for (x, c) in &self.points {
            writeln!(f, "{x:>6.2} {c:>8.4}")?;
        }
        Ok(())
    }
}

/// Generates the Figure 1 curve over [-2, 2].
pub fn fig1() -> Fig1Report {
    let points = (-20..=20)
        .map(|i| {
            let x = i as f64 / 10.0;
            (x, 0.5 * (1.0 + mps_stats::erf(x)))
        })
        .collect();
    Fig1Report { points }
}

/// Figure 3: analytic model vs experimental confidence for random
/// sampling, one pair and metric (paper: DRRIP vs DIP, WSU).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Report {
    /// Core counts evaluated.
    pub cores: Vec<usize>,
    /// `(cores, sample size, analytic, empirical)` series.
    pub points: Vec<(usize, usize, f64, f64)>,
}

impl Fig3Report {
    /// Maximum |analytic − empirical| disagreement across all points.
    pub fn max_model_error(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, _, a, e)| (a - e).abs())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for Fig3Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FIGURE 3. Confidence that DRRIP outperforms DIP vs sample size (WSU): model vs experiment."
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>10} {:>12}",
            "cores", "W", "model", "experiment"
        )?;
        for &(k, w, a, e) in &self.points {
            writeln!(f, "{k:>6} {w:>8} {a:>10.4} {e:>12.4}")?;
        }
        for &k in &self.cores {
            let series: Vec<(String, Vec<(f64, f64)>)> = vec![
                (
                    format!("{k}-cores-model"),
                    self.points
                        .iter()
                        .filter(|&&(c, _, _, _)| c == k)
                        .map(|&(_, w, a, _)| (w as f64, a))
                        .collect(),
                ),
                (
                    format!("{k}-cores-exp."),
                    self.points
                        .iter()
                        .filter(|&&(c, _, _, _)| c == k)
                        .map(|&(_, w, _, e)| (w as f64, e))
                        .collect(),
                ),
            ];
            write!(f, "{}", crate::plot::line_chart(&series, 56, 12, true))?;
        }
        writeln!(
            f,
            "max |model - experiment| = {:.4}",
            self.max_model_error()
        )
    }
}

/// Runs the Figure 3 validation: empirical random-sampling confidence vs
/// the equation (5) model, for DRRIP vs DIP under WSU. With a store
/// attached, every evaluated grid point lands in the `fig3` checkpoint
/// log, so a killed run resumed with `--resume` replays the completed
/// cells and continues bit-identically.
pub fn fig3(ctx: &StudyContext) -> Result<Fig3Report, Error> {
    let metric = ThroughputMetric::WeightedSpeedup;
    // The paper validates on 2, 4 and 8 cores; the 8-core population is
    // included once the scale gives it a meaningful sample.
    let cores_list = if ctx.scale.pop_8core >= 100 {
        vec![2usize, 4, 8]
    } else {
        vec![2usize, 4]
    };
    let ckpt = ctx.grid_checkpoint("fig3");
    crate::heartbeat::grid_add_total((cores_list.len() * ctx.scale.sample_sizes.len()) as u64);
    let prefetch: Vec<PrefetchKind> = cores_list
        .iter()
        .flat_map(|&cores| {
            [PolicyKind::Dip, PolicyKind::Drrip].map(|policy| PrefetchKind::Table { cores, policy })
        })
        .collect();
    dist::prefetch(ctx, "fig3", &prefetch)?;

    let samples = ctx.scale.confidence_samples;
    let mut inputs = Vec::new(); // per core count: (pop, data, probe)
    let mut cells = Vec::new();
    let mut meta = Vec::new(); // (inputs index, cores, w, analytic)
    for &cores in &cores_list {
        let data = ctx.badco_pair_data(cores, PolicyKind::Dip, PolicyKind::Drrip, metric)?;
        let pop = ctx.population(cores)?;
        let probe = ConvergenceProbe::new("fig3", &format!("c{cores}"), &data.differences());
        let mut rng = ctx.rng(0xF163 ^ cores as u64);
        for &w in &ctx.scale.sample_sizes {
            let base = rng.next_u64();
            cells.push(confidence_cell(
                format!("c{cores};w{w}"),
                ConfSource::Fig3 { cores },
                "random",
                w,
                samples,
                base,
            ));
            meta.push((inputs.len(), cores, w, analytic_confidence(&data, w)));
        }
        inputs.push((pop, data, probe));
    }
    let values = dist::run_grid(ctx, "fig3", &cells, ckpt.as_ref(), &|i, cell| {
        let CellDesc::Confidence {
            w, samples, base, ..
        } = &cell.desc
        else {
            unreachable!("fig3 grid contains only confidence cells");
        };
        let (pop, data, _) = &inputs[meta[i].0];
        Ok(vec![empirical_confidence_seeded(
            &RandomSampling,
            pop,
            data,
            *w,
            *samples,
            *base,
            ctx.jobs(),
        )])
    })?;
    let mut points = Vec::new();
    for (&(input, cores, w, analytic), empirical) in meta.iter().zip(&values) {
        inputs[input].2.cell("random", w, samples);
        points.push((cores, w, analytic, empirical[0]));
    }
    Ok(Fig3Report {
        cores: cores_list,
        points,
    })
}

/// Confidence-vs-sample-size curves for several sampling methods on one
/// policy pair (one panel of Figure 6 / Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidencePanel {
    /// Baseline policy X.
    pub x: PolicyKind,
    /// Contender policy Y.
    pub y: PolicyKind,
    /// `(method name, sample size, confidence)` series.
    pub series: Vec<(String, usize, f64)>,
}

impl ConfidencePanel {
    /// Confidence of a method at a sample size, if evaluated.
    pub fn confidence(&self, method: &str, w: usize) -> Option<f64> {
        self.series
            .iter()
            .find(|(m, sw, _)| m == method && *sw == w)
            .map(|&(_, _, c)| c)
    }

    /// Method names present.
    pub fn methods(&self) -> Vec<String> {
        let mut ms: Vec<String> = self.series.iter().map(|(m, _, _)| m.clone()).collect();
        ms.dedup();
        ms
    }
}

/// The Figure 6 / Figure 7 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceCurves {
    /// Figure number (6 or 7), for rendering.
    pub figure: u8,
    /// Core count evaluated.
    pub cores: usize,
    /// Which simulator produced the throughputs ("BADCO" or "detailed").
    pub simulator: &'static str,
    /// One panel per policy pair.
    pub panels: Vec<ConfidencePanel>,
}

impl std::fmt::Display for ConfidenceCurves {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FIGURE {}. Degree of confidence vs sample size ({} cores, measured with {}, IPCT).",
            self.figure, self.cores, self.simulator
        )?;
        for panel in &self.panels {
            writeln!(f, "--- {} > {} ---", panel.y, panel.x)?;
            let methods = panel.methods();
            write!(f, "{:>6}", "W")?;
            for m in &methods {
                write!(f, "{m:>18}")?;
            }
            writeln!(f)?;
            let mut sizes: Vec<usize> = panel.series.iter().map(|&(_, w, _)| w).collect();
            sizes.sort_unstable();
            sizes.dedup();
            for w in &sizes {
                write!(f, "{w:>6}")?;
                for m in &methods {
                    match panel.confidence(m, *w) {
                        Some(c) => write!(f, "{c:>18.3}")?,
                        None => write!(f, "{:>18}", "-")?,
                    }
                }
                writeln!(f)?;
            }
            let series: Vec<(String, Vec<(f64, f64)>)> = methods
                .iter()
                .map(|m| {
                    (
                        m.clone(),
                        sizes
                            .iter()
                            .filter_map(|&w| panel.confidence(m, w).map(|c| (w as f64, c)))
                            .collect(),
                    )
                })
                .collect();
            write!(f, "{}", crate::plot::line_chart(&series, 56, 12, true))?;
        }
        Ok(())
    }
}

/// The four policy pairs of Figure 6, oriented as in the paper
/// (`Y > X`): DIP>LRU, DRRIP>LRU, DRRIP>DIP, FIFO>RND.
pub fn fig6_pairs() -> [(PolicyKind, PolicyKind); 4] {
    [
        (PolicyKind::Lru, PolicyKind::Dip),
        (PolicyKind::Lru, PolicyKind::Drrip),
        (PolicyKind::Dip, PolicyKind::Drrip),
        (PolicyKind::Random, PolicyKind::Fifo),
    ]
}

/// Evaluates all applicable sampling methods on `data` over the given
/// population, producing one panel. The `(method, W)` grid goes through
/// [`dist::run_grid`], so with a coordinator attached the cells are
/// sharded across worker processes (which rebuild `pop`/`data` from
/// `source` against the shared store) and evaluated bit-identically.
#[allow(clippy::too_many_arguments)]
fn panel(
    ctx: &StudyContext,
    ckpt: Option<&Arc<Checkpoint>>,
    experiment: &'static str,
    cell_prefix: &str,
    source: ConfSource,
    pop: &mps_sampling::Population,
    data: &PairData,
    x: PolicyKind,
    y: PolicyKind,
    samples: usize,
    stream: u64,
) -> Result<ConfidencePanel, Error> {
    let probe = ConvergenceProbe::new(experiment, cell_prefix, &data.differences());
    let classes: Vec<usize> = ctx
        .suite()
        .iter()
        .map(|b| b.nominal_class.index())
        .collect();
    let bench_strata = BenchmarkStratification::new(classes);
    let workload_strata = WorkloadStratification::with_defaults(&data.differences());
    let mut methods: Vec<(&str, &dyn Sampler)> = vec![
        ("random", &RandomSampling),
        ("bench-strata", &bench_strata),
        ("workload-strata", &workload_strata),
    ];
    let balanced = BalancedRandomSampling;
    if pop.is_full() {
        // The balanced construction needs the full population (paper
        // footnote 6 hits the same restriction).
        methods.insert(1, ("bal-random", &balanced));
    }
    let sizes = ctx.scale.sample_sizes.clone();
    let eligible = sizes.iter().filter(|&&w| w <= pop.len()).count();
    crate::heartbeat::grid_add_total((methods.len() * eligible) as u64);
    let mut cells = Vec::new();
    for (name, _) in &methods {
        let mut rng = ctx.rng(stream ^ fxhash(name));
        for &w in &sizes {
            if w > pop.len() {
                continue;
            }
            let base = rng.next_u64();
            cells.push(confidence_cell(
                format!("{cell_prefix};{name};w{w}"),
                source,
                name,
                w,
                samples,
                base,
            ));
        }
    }
    let values = dist::run_grid(ctx, experiment, &cells, ckpt, &|_, cell| {
        let CellDesc::Confidence {
            method,
            w,
            samples,
            base,
            ..
        } = &cell.desc
        else {
            unreachable!("confidence panels contain only confidence cells");
        };
        let sampler = methods
            .iter()
            .find(|(n, _)| n == method)
            .expect("cell methods come from this panel's method list")
            .1;
        Ok(vec![empirical_confidence_seeded(
            sampler,
            pop,
            data,
            *w,
            *samples,
            *base,
            ctx.jobs(),
        )])
    })?;
    let mut series = Vec::new();
    for (cell, v) in cells.iter().zip(&values) {
        let CellDesc::Confidence {
            method, w, samples, ..
        } = &cell.desc
        else {
            unreachable!("confidence panels contain only confidence cells");
        };
        probe.cell(method, *w, *samples);
        series.push((method.clone(), *w, v[0]));
    }
    Ok(ConfidencePanel { x, y, series })
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Figure 6: confidence of the four sampling methods on four policy
/// pairs, estimated with BADCO (4 cores, IPCT).
pub fn fig6(ctx: &StudyContext) -> Result<ConfidenceCurves, Error> {
    let cores = 4;
    let metric = ThroughputMetric::IpcThroughput;
    let pop = ctx.population(cores)?;
    let samples = ctx.scale.confidence_samples;
    let ckpt = ctx.grid_checkpoint("fig6");
    let mut prefetch: Vec<PrefetchKind> = Vec::new();
    for policy in fig6_pairs().into_iter().flat_map(|(x, y)| [x, y]) {
        let kind = PrefetchKind::Table { cores, policy };
        if !prefetch.contains(&kind) {
            prefetch.push(kind);
        }
    }
    dist::prefetch(ctx, "fig6", &prefetch)?;
    let mut panels = Vec::new();
    for (i, (x, y)) in fig6_pairs().into_iter().enumerate() {
        let data = ctx.badco_pair_data(cores, x, y, metric)?;
        panels.push(panel(
            ctx,
            ckpt.as_ref(),
            "fig6",
            &format!("p{i}"),
            ConfSource::Fig6 { pair: i },
            &pop,
            &data,
            x,
            y,
            samples,
            0xF166 + i as u64,
        )?);
    }
    Ok(ConfidenceCurves {
        figure: 6,
        cores,
        simulator: "BADCO",
        panels,
    })
}

/// Figure 7: the *actual* degree of confidence, measured with the detailed
/// simulator on the full 2-core population, for DIP vs LRU (IPCT) — with
/// workload strata still built from the BADCO data, exactly like the
/// paper (strata from the approximate simulator, outcomes from the
/// detailed one).
pub fn fig7(ctx: &StudyContext) -> Result<ConfidenceCurves, Error> {
    let cores = 2;
    let metric = ThroughputMetric::IpcThroughput;
    let (x, y) = (PolicyKind::Lru, PolicyKind::Dip);
    // The detailed tables dominate this figure's cost: with a
    // coordinator, warm them (and the BADCO strata tables) through the
    // workers so both sides then load the same store artifacts.
    dist::prefetch(
        ctx,
        "fig7",
        &[
            PrefetchKind::Table { cores, policy: x },
            PrefetchKind::Table { cores, policy: y },
            PrefetchKind::DetailedTable { cores, policy: x },
            PrefetchKind::DetailedTable { cores, policy: y },
        ],
    )?;
    let pop = ctx.population(cores)?;
    let workloads = pop.workloads().to_vec();

    // Detailed-simulator throughputs over the full 253-workload population.
    let tables = ctx.detailed_tables(cores, &[x, y], &workloads)?;
    let detailed_data = PairData::new(
        metric,
        tables[0].throughputs(metric),
        tables[1].throughputs(metric),
    );

    // Strata are defined from the approximate (BADCO) differences.
    let badco_data = ctx.badco_pair_data(cores, x, y, metric)?;
    let workload_strata = WorkloadStratification::with_defaults(&badco_data.differences());

    let classes: Vec<usize> = ctx
        .suite()
        .iter()
        .map(|b| b.nominal_class.index())
        .collect();
    let bench_strata = BenchmarkStratification::new(classes);
    let balanced = BalancedRandomSampling;
    let methods: Vec<(&str, &dyn Sampler)> = vec![
        ("random", &RandomSampling),
        ("bal-random", &balanced),
        ("bench-strata", &bench_strata),
        ("workload-strata", &workload_strata),
    ];

    // The paper uses 100 samples per size for this figure.
    let samples = (ctx.scale.confidence_samples / 10).max(100);
    let sizes: Vec<usize> = ctx
        .scale
        .sample_sizes
        .iter()
        .copied()
        .filter(|&w| w <= 50)
        .collect();
    let ckpt = ctx.grid_checkpoint("fig7");
    crate::heartbeat::grid_add_total((methods.len() * sizes.len()) as u64);
    let probe = ConvergenceProbe::new("fig7", "p0", &detailed_data.differences());
    let mut cells = Vec::new();
    for (name, _) in &methods {
        let mut rng = ctx.rng(0xF167 ^ fxhash(name));
        for &w in &sizes {
            let base = rng.next_u64();
            cells.push(confidence_cell(
                format!("{name};w{w}"),
                ConfSource::Fig7,
                name,
                w,
                samples,
                base,
            ));
        }
    }
    let values = dist::run_grid(ctx, "fig7", &cells, ckpt.as_ref(), &|_, cell| {
        let CellDesc::Confidence {
            method,
            w,
            samples,
            base,
            ..
        } = &cell.desc
        else {
            unreachable!("fig7 grid contains only confidence cells");
        };
        let sampler = methods
            .iter()
            .find(|(n, _)| n == method)
            .expect("cell methods come from fig7's method list")
            .1;
        Ok(vec![empirical_confidence_seeded(
            sampler,
            &pop,
            &detailed_data,
            *w,
            *samples,
            *base,
            ctx.jobs(),
        )])
    })?;
    let mut series = Vec::new();
    for (cell, v) in cells.iter().zip(&values) {
        let CellDesc::Confidence {
            method, w, samples, ..
        } = &cell.desc
        else {
            unreachable!("fig7 grid contains only confidence cells");
        };
        probe.cell(method, *w, *samples);
        series.push((method.clone(), *w, v[0]));
    }
    Ok(ConfidenceCurves {
        figure: 7,
        cores,
        simulator: "detailed",
        panels: vec![ConfidencePanel { x, y, series }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn fig1_curve_shape() {
        let rep = fig1();
        assert_eq!(rep.points.len(), 41);
        assert!(rep.points.first().unwrap().1 < 0.01);
        assert!((rep.points[20].1 - 0.5).abs() < 1e-12);
        assert!(rep.points.last().unwrap().1 > 0.99);
        assert!(rep.to_string().contains("FIGURE 1"));
    }

    #[test]
    fn fig3_model_tracks_experiment() {
        let ctx = StudyContext::new(Scale::test());
        let rep = fig3(&ctx).unwrap();
        assert!(!rep.points.is_empty());
        // The CLT model and the experiment must agree reasonably — this is
        // the paper's central validation (they report "quite good" match).
        // The CLT model is rough when W approaches the tiny test-scale
        // population; the small/full scales validate the tight match.
        assert!(
            rep.max_model_error() < 0.25,
            "model error {}",
            rep.max_model_error()
        );
    }

    #[test]
    fn fig6_panels_have_all_methods_on_full_populations() {
        let ctx = StudyContext::new(Scale::test());
        let rep = fig6(&ctx).unwrap();
        assert_eq!(rep.panels.len(), 4);
        for p in &rep.panels {
            let ms = p.methods();
            assert!(ms.contains(&"random".to_owned()));
            assert!(ms.contains(&"workload-strata".to_owned()));
        }
        assert!(rep.to_string().contains("FIGURE 6"));
    }
}
