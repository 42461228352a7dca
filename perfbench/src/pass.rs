//! One study: a fresh `StudyContext` at one `Scale` seed, its set-up, the
//! layer warm-up calls and every experiment of the workload, each call
//! timed from outside the program.

use crate::layers::Obs;
use mps_harness::experiments as exp;
use mps_harness::export::CsvExport;
use mps_harness::{Error, Scale, StudyCacheStats, StudyContext, AUTO_BATCH};
use mps_store::StoreStats;
use mps_uncore::PolicyKind;
use std::fmt::Display;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker threads: the 2-CPU host the references were recorded on.
pub const JOBS: usize = 2;

/// The layer calls made before the experiments. They only fill caches the
/// experiments would fill anyway, so they must add no simulated work.
pub struct Warmup {
    /// Core counts whose BADCO models are trained.
    pub model_cores: &'static [usize],
    /// BADCO throughput tables built, by core count and policy.
    pub tables: &'static [(usize, PolicyKind)],
}

/// Where a study keeps its artifacts.
#[derive(Clone, Copy)]
pub enum Store<'a> {
    None,
    /// Emptied before the study.
    Fresh(&'a Path),
    /// Used as it is.
    Existing(&'a Path),
}

/// One experiment's rendered output.
pub struct Output {
    pub name: &'static str,
    pub text: String,
    pub csv: String,
}

/// Everything measured in one study.
pub struct Study {
    pub seed: u64,
    /// `StudyBuilder::build()`.
    pub build: Duration,
    /// `build()` plus `ctx.trace_buffer(b)` for every suite benchmark:
    /// making the study's inputs.
    pub setup: Duration,
    /// The trace part of `setup`.
    pub trace: Duration,
    /// Wall time of the BADCO warm-up, the experiments and their rendering.
    pub wall: Duration,
    /// Process user+sys CPU time over the same interval.
    pub cpu: Duration,
    /// `ctx.models(c)`.
    pub train: Duration,
    /// `ctx.badco_reference_ipcs(c)` and `ctx.badco_table(c, p)`.
    pub badco_sim: Duration,
    /// Each experiment call, without rendering, in run order.
    pub exp: Vec<(&'static str, Duration)>,
    /// Every report's `Display` and `csv()`.
    pub render: Duration,
    /// Outputs of the experiments that returned `Ok`.
    pub outputs: Vec<Output>,
    /// Calls that returned `Err`: an experiment, or `warmup`.
    pub errors: Vec<(&'static str, String)>,
    /// `CpiAccuracyReport::max_error()`, when the study ran fig2.
    pub cpi_max_err: Option<f64>,
    pub cache: StudyCacheStats,
    pub store: Option<StoreStats>,
    /// Size of the store directory after the study.
    pub disk_bytes: u64,
    /// The program's own counters and span totals for this study alone.
    pub obs: Obs,
}

struct Rendered {
    call: Duration,
    render: Duration,
    text: String,
    csv: String,
}

/// Builds a context with the benchmark's fixed settings; returns it with
/// the time `build()` took.
pub fn build(scale: &Scale, store: Option<&Path>) -> Result<(StudyContext, Duration), Error> {
    let mut builder = StudyContext::builder()
        .scale(scale.clone())
        .jobs(JOBS)
        .batch(AUTO_BATCH);
    if let Some(dir) = store {
        builder = builder.store(dir);
    }
    let t = Instant::now();
    let ctx = builder.build()?;
    Ok((ctx, t.elapsed()))
}

/// Builds a context and, if `traces`, makes its inputs; returns it with
/// the `build()` time and the trace time.
fn set_up(
    scale: &Scale,
    store: Store,
    traces: bool,
) -> Result<(StudyContext, Duration, Duration), Error> {
    let dir = match store {
        Store::None => None,
        Store::Fresh(dir) => {
            remove_dir(dir)?;
            Some(dir)
        }
        Store::Existing(dir) => Some(dir),
    };
    let (ctx, build) = build(scale, dir)?;
    let span = mps_obs::span("bench.workloads.trace");
    let t = Instant::now();
    if traces {
        for b in 0..ctx.suite().len() {
            ctx.trace_buffer(b)?;
        }
    }
    let trace = t.elapsed();
    span.finish();
    Ok((ctx, build, trace))
}

/// Times set-up alone, for the `setup_s` median; returns the `build()`
/// time and the whole set-up time.
pub fn setup_only(scale: &Scale, store: Store) -> Result<(Duration, Duration), Error> {
    let (_, build, trace) = set_up(scale, store, true)?;
    Ok((build, build + trace))
}

/// Runs one study from a reset `mps_obs` state, tracing to `trace_to` if
/// given. Without a warm-up nothing is called before the experiments.
pub fn study(
    scale: &Scale,
    store: Store,
    experiments: &[&'static str],
    warmup: Option<&Warmup>,
    trace_to: Option<&Path>,
) -> Result<Study, Error> {
    mps_obs::reset();
    if let Some(path) = trace_to {
        mps_obs::set_sink_path(&path.to_string_lossy())
            .map_err(|e| Error::Io(format!("open {}: {e}", path.display())))?;
    }
    let span = mps_obs::span("bench.study");
    let (ctx, build, trace) = set_up(scale, store, warmup.is_some())?;
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let mut s = Study {
        seed: scale.seed,
        build,
        setup: build + trace,
        trace,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        train: Duration::ZERO,
        badco_sim: Duration::ZERO,
        exp: Vec::new(),
        render: Duration::ZERO,
        outputs: Vec::new(),
        errors: Vec::new(),
        cpi_max_err: None,
        cache: StudyCacheStats::default(),
        store: None,
        disk_bytes: 0,
        obs: Obs::default(),
    };
    if let Some(w) = warmup {
        if let Err(e) = warm(&ctx, w, &mut s) {
            s.errors.push(("warmup", e.to_string()));
        }
    }
    let mut speeds = None;
    for &name in experiments {
        let _span = mps_obs::span(name);
        match run_experiment(&ctx, name, &mut speeds, &mut s.cpi_max_err) {
            Ok(r) => {
                s.exp.push((name, r.call));
                s.render += r.render;
                s.outputs.push(Output {
                    name,
                    text: r.text,
                    csv: r.csv,
                });
            }
            Err(e) => s.errors.push((name, e.to_string())),
        }
    }
    s.wall = t0.elapsed();
    s.cpu = cpu_time().saturating_sub(cpu0);
    span.finish();
    s.cache = ctx.cache_stats();
    s.store = ctx.store_stats();
    drop(ctx);
    s.obs = Obs::take();
    // Flushes and removes the sink, so set-ups timed between studies
    // stay out of the trace file.
    mps_obs::reset();
    if let Store::Fresh(dir) | Store::Existing(dir) = store {
        s.disk_bytes = dir_bytes(dir);
    }
    Ok(s)
}

fn warm(ctx: &StudyContext, w: &Warmup, s: &mut Study) -> Result<(), Error> {
    let span = mps_obs::span("bench.badco.train");
    let t = Instant::now();
    for &cores in w.model_cores {
        ctx.models(cores)?;
    }
    s.train = t.elapsed();
    span.finish();
    let _span = mps_obs::span("bench.badco.sim");
    let t = Instant::now();
    let mut ref_cores: Vec<usize> = w.tables.iter().map(|&(c, _)| c).collect();
    ref_cores.sort_unstable();
    ref_cores.dedup();
    for cores in ref_cores {
        ctx.badco_reference_ipcs(cores)?;
    }
    for &(cores, policy) in w.tables {
        ctx.badco_table(cores, policy)?;
    }
    s.badco_sim = t.elapsed();
    Ok(())
}

fn measure<R>(
    call: impl FnOnce() -> Result<R, Error>,
    render: impl FnOnce(&R) -> (String, String),
) -> Result<(R, Rendered), Error> {
    let t = Instant::now();
    let report = call()?;
    let call = t.elapsed();
    let t = Instant::now();
    let (text, csv) = render(&report);
    let rendered = Rendered {
        call,
        render: t.elapsed(),
        text,
        csv,
    };
    Ok((report, rendered))
}

fn text_and_csv<R: Display + CsvExport>(r: &R) -> (String, String) {
    (r.to_string(), r.csv())
}

fn text_only<R: Display>(r: &R) -> (String, String) {
    (r.to_string(), String::new())
}

fn run_experiment(
    ctx: &StudyContext,
    name: &'static str,
    speeds: &mut Option<exp::SpeedReport>,
    cpi_max_err: &mut Option<f64>,
) -> Result<Rendered, Error> {
    let plain = |s: &String| (s.clone(), String::new());
    let rendered = match name {
        "table1" => measure(|| Ok(exp::table1()), plain)?.1,
        "table2" => measure(|| Ok(exp::table2()), plain)?.1,
        "table3" => {
            let (report, r) = measure(|| exp::table3(ctx), text_and_csv)?;
            *speeds = Some(report);
            r
        }
        "table4" => measure(|| exp::table4(ctx), text_and_csv)?.1,
        "fig1" => measure(|| Ok(exp::fig1()), text_and_csv)?.1,
        "fig2" => {
            let (report, r) = measure(|| exp::fig2(ctx), text_and_csv)?;
            *cpi_max_err = Some(report.max_error());
            r
        }
        "fig3" => measure(|| exp::fig3(ctx), text_and_csv)?.1,
        "fig4" => measure(|| exp::fig4(ctx), text_and_csv)?.1,
        "fig5" => measure(|| exp::fig5(ctx), text_and_csv)?.1,
        "fig6" => measure(|| exp::fig6(ctx), text_and_csv)?.1,
        "fig7" => measure(|| exp::fig7(ctx), text_and_csv)?.1,
        "overhead" => {
            let s = speeds.as_ref().ok_or_else(|| {
                Error::InvalidInput("overhead needs the speeds table3 measures".to_owned())
            })?;
            measure(|| Ok(exp::overhead(ctx, s)), text_only)?.1
        }
        "guideline" => measure(|| exp::guideline(ctx), text_and_csv)?.1,
        "ablation" => measure(|| exp::ablation(ctx), text_and_csv)?.1,
        "energy" => measure(|| exp::energy(ctx), text_only)?.1,
        "dw" => measure(|| exp::dw(ctx), text_only)?.1,
        other => return Err(Error::InvalidInput(format!("unknown experiment {other}"))),
    };
    Ok(rendered)
}

pub fn remove_dir(dir: &Path) -> Result<(), Error> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(Error::Io(format!("remove {}: {e}", dir.display()))),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// User+sys CPU time of this process, all threads included (Linux
/// `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().expect("utime is a number")
        + fields[12].parse::<u64>().expect("stime is a number");
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb as f64 / 1024.0
}
