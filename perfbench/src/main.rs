//! The repository's benchmark: runs one named workload of study
//! experiments through the public `mps_harness` API, checks every output
//! and simulated statistic, and prints end-to-end metrics (untraced runs)
//! or per-layer metrics (a traced run). See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_test --seed 12648430 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root: it keeps its stores and trace files
//! under `.perfbench/` there. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.

mod checks;
mod layers;
mod pass;

use checks::Expected;
use mps_harness::{Error, Scale, AUTO_BATCH};
use mps_uncore::PolicyKind::{Dip, Drrip, Fifo, Lru, Random};
use pass::{Store, Study, Warmup, JOBS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload paper_test|population_small|warm_store \
                     [--seed N] [--seconds S] [--trace 0|1] [--record]";

/// `Scale::seed` when `--seed` is absent (the preset seed).
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Studies in one untraced `paper_test` pass. One `Scale::test()`
/// study's cost depends on the few workloads its seed samples (fig4's
/// 8-workload detailed sample, fig7's population): over six seeds, single
/// studies spread by 25 % in wall time and 20 % in CPU time, five-study
/// panels by 11 % and 7 %. Three studies (6 % and 4 % over ten seeds)
/// fit a pass into a run of `run_seconds` in `BENCHMARK.json`.
const PAPER_STUDIES: u64 = 3;
/// Time spent on extra set-ups after each study. The host has slow spells
/// of a few seconds; set-ups spread over the whole run keep their median
/// from resting on one of them.
const SETUP_SLICE: Duration = Duration::from_millis(300);
/// Set-ups timed per run, at least; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// Where stores and trace files live, relative to the repository root.
const WORK_DIR: &str = ".perfbench";
/// Where `--record` writes references, relative to the repository root.
const REFS_PATH: &str = "perfbench/refs.tsv";

/// `mps-harness run all`, in its order.
const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "overhead",
    "guideline",
    "ablation",
    "energy",
    "dw",
];
/// The approximate-simulation side of the paper.
const POPULATION: &[&str] = &["fig3", "fig5", "fig6", "guideline", "ablation", "dw"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperTest,
    PopulationSmall,
    WarmStore,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "paper_test" => Some(Self::PaperTest),
            "population_small" => Some(Self::PopulationSmall),
            "warm_store" => Some(Self::WarmStore),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperTest => "paper_test",
            Self::PopulationSmall => "population_small",
            Self::WarmStore => "warm_store",
        }
    }

    fn scale(self, seed: u64) -> Scale {
        let base = match self {
            Self::PaperTest => Scale::test(),
            Self::PopulationSmall | Self::WarmStore => Scale::small(),
        };
        Scale { seed, ..base }
    }

    fn experiments(self) -> &'static [&'static str] {
        match self {
            Self::PaperTest => ALL,
            Self::PopulationSmall | Self::WarmStore => POPULATION,
        }
    }

    /// Where the workload's studies keep artifacts; `dir` is filled in
    /// set-up for `warm_store`.
    fn store(self, dir: &Path) -> Store<'_> {
        match self {
            Self::PaperTest => Store::None,
            Self::PopulationSmall => Store::Fresh(dir),
            Self::WarmStore => Store::Existing(dir),
        }
    }

    /// Exactly the models and tables the workload's experiments use, so
    /// the warm-up adds no simulated work (checked against references
    /// recorded without it).
    fn warmup(self) -> Warmup {
        match self {
            Self::PaperTest => Warmup {
                model_cores: &[2, 4, 8],
                tables: &[
                    (2, Lru),
                    (2, Dip),
                    (2, Drrip),
                    (4, Lru),
                    (4, Random),
                    (4, Fifo),
                    (4, Dip),
                    (4, Drrip),
                ],
            },
            Self::PopulationSmall | Self::WarmStore => Warmup {
                model_cores: &[2, 4, 8],
                tables: &[
                    (2, Dip),
                    (2, Drrip),
                    (4, Lru),
                    (4, Random),
                    (4, Fifo),
                    (4, Dip),
                    (4, Drrip),
                    (8, Dip),
                    (8, Drrip),
                ],
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut record = false;
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("bad --seed {value}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `Scale` seeds of one pass: `seed` itself, then seeds derived from
/// it (SplitMix64), so a run's studies are independent samples.
fn study_seeds(workload: Workload, seed: u64, trace: bool) -> Vec<u64> {
    let n = if workload == Workload::PaperTest && !trace {
        PAPER_STUDIES
    } else {
        1
    };
    (0..n)
        .map(|k| {
            if k == 0 {
                return seed;
            }
            let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.record {
        record(&args)
    } else {
        run(&args)
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Records the references of every study of one run: each without the
/// warm-ups, so later runs (which warm up) prove they add no work.
fn record(args: &Args) -> Result<(), Error> {
    let wl = args.workload;
    let dir = PathBuf::from(WORK_DIR).join(format!("{}-record-store", wl.name()));
    let mut lines = String::new();
    for seed in study_seeds(wl, args.seed, false) {
        let scale = wl.scale(seed);
        if wl == Workload::WarmStore {
            pass::study(&scale, Store::Fresh(&dir), wl.experiments(), None, None)?;
        }
        let s = pass::study(&scale, wl.store(&dir), wl.experiments(), None, None)?;
        if let Some((name, e)) = s.errors.first() {
            return Err(Error::InvalidInput(format!("{name} failed: {e}")));
        }
        let exp = checks::observed(&s.outputs, &s.obs.counters);
        lines.push_str(&checks::reference_lines(wl.name(), seed, &exp));
        eprintln!("recorded {} seed {seed:#x}", wl.name());
    }
    pass::remove_dir(&dir)?;
    let old = std::fs::read_to_string(REFS_PATH).unwrap_or_default();
    let mut text: String = old
        .lines()
        .filter(|l| !lines.lines().any(|n| same_key(l, n)))
        .map(|l| format!("{l}\n"))
        .collect();
    text.push_str(&lines);
    std::fs::write(REFS_PATH, text).map_err(|e| Error::Io(format!("write {REFS_PATH}: {e}")))
}

/// Whether two `refs.tsv` lines hold the same workload, seed and key.
fn same_key(a: &str, b: &str) -> bool {
    let key = |l: &str| l.rsplit_once('\t').map(|(k, _)| k.to_owned());
    key(a).is_some() && key(a) == key(b)
}

/// Set-up times of a run, in seconds.
#[derive(Default)]
struct Setups {
    /// `build()` plus trace making.
    setup: Vec<f64>,
    /// `build()` alone.
    build: Vec<f64>,
}

impl Setups {
    fn push(&mut self, build: Duration, setup: Duration) {
        self.build.push(build.as_secs_f64());
        self.setup.push(setup.as_secs_f64());
    }

    /// Times one set-up on its own.
    fn time(&mut self, scale: &Scale, store: Store) -> Result<(), Error> {
        let (build, setup) = pass::setup_only(scale, store)?;
        self.push(build, setup);
        Ok(())
    }
}

/// A pass: one study per seed of the panel.
struct Pass {
    studies: Vec<Study>,
    traced: bool,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.studies.iter().map(|s| s.wall.as_secs_f64()).sum()
    }

    fn cpu_s(&self) -> f64 {
        self.studies.iter().map(|s| s.cpu.as_secs_f64()).sum()
    }
}

fn run(args: &Args) -> Result<(), Error> {
    let wl = args.workload;
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work)
        .map_err(|e| Error::Io(format!("create {}: {e}", work.display())))?;
    let dir = work.join(format!("{}-store-{}", wl.name(), std::process::id()));
    let trace_path = work.join(format!("{}.trace.jsonl", wl.name()));
    pass::remove_dir(&dir)?;
    let store = wl.store(&dir);
    let seeds = study_seeds(wl, args.seed, args.trace);
    let warmup = wl.warmup();

    // warm_store's set-up fills its store with one population_small
    // study, whose outputs its own studies must reproduce byte for byte.
    let mut fill_s = 0.0;
    let mut fill = None;
    if wl == Workload::WarmStore {
        let t = Instant::now();
        let s = pass::study(
            &wl.scale(args.seed),
            Store::Fresh(&dir),
            wl.experiments(),
            Some(&warmup),
            None,
        )?;
        fill_s = t.elapsed().as_secs_f64();
        if let Some((name, e)) = s.errors.first() {
            return Err(Error::InvalidInput(format!(
                "filling the store: {name} failed: {e}"
            )));
        }
        fill = Some(checks::observed(&s.outputs, &BTreeMap::new()));
    }

    // Passes while the next one still ends within `--seconds`; every
    // study is followed by a slice of set-ups. A traced run alternates
    // untraced and traced passes, so the tracing overhead can be read off.
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Setups::default();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let traced = args.trace && passes.len() % 2 == 1;
        let mut studies = Vec::new();
        for &seed in &seeds {
            let trace_to = traced.then_some(trace_path.as_path());
            let s = pass::study(
                &wl.scale(seed),
                store,
                wl.experiments(),
                Some(&warmup),
                trace_to,
            )?;
            setups.push(s.build, s.setup);
            studies.push(s);
            if passes.is_empty() && studies.len() == seeds.len() {
                // Read after a fixed amount of work, so a faster program
                // that fits more passes into the run does not report more
                // memory.
                peak_rss_mb = pass::peak_rss_mb();
            }
            let slice = Instant::now();
            while slice.elapsed() < SETUP_SLICE {
                setups.time(&wl.scale(args.seed), store)?;
            }
        }
        passes.push(Pass { studies, traced });
        let have_both = !args.trace || passes.len() >= 2;
        let next_ends = started.elapsed() + pass_started.elapsed();
        if have_both && next_ends.as_secs_f64() > args.seconds as f64 {
            break;
        }
    }
    while setups.setup.len() < SETUP_SAMPLES {
        setups.time(&wl.scale(args.seed), store)?;
    }
    pass::remove_dir(&dir)?;

    let (attempted, failed) = check(wl, &seeds, &passes, fill.as_ref());
    let ops_failed_frac = failed as f64 / attempted as f64;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let wall_s = median(untraced.iter().map(|p| p.wall_s()).collect());
    let referenced: Vec<String> = seeds
        .iter()
        .filter(|&&seed| checks::reference(wl.name(), seed).is_some())
        .map(|seed| format!("\"{seed:#x}\""))
        .collect();
    let seed_list: Vec<String> = seeds.iter().map(|s| format!("\"{s:#x}\"")).collect();
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"study_seeds\":[{}],\"nproc\":{},\"jobs\":{JOBS},\"batch\":{AUTO_BATCH},\"scale\":\"{}\",\"kernel_rev\":{},\"trace\":{},\"passes\":{},\"referenced_seeds\":[{}]}}",
        wl.name(),
        args.seed,
        seed_list.join(","),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        wl.scale(args.seed).spec_string(),
        mps_store::KERNEL_REV,
        u8::from(args.trace),
        passes.len(),
        referenced.join(","),
    );
    let counts: Vec<String> = checks::observed(&[], &passes[0].studies[0].obs.counters)
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("counts {{{}}}", counts.join(","));
    println!("{:<36} {:>20} frac", "ops_failed_frac", ops_failed_frac);

    let metrics = if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let study = &traced
            .last()
            .expect("a traced run makes a traced pass")
            .studies[0];
        let traced_wall = median(traced.iter().map(|p| p.wall_s()).collect());
        let badco_cpi_max_err = match study.cpi_max_err {
            Some(e) => e,
            None => test_scale_cpi_max_err(args.seed)?,
        };
        let around = layers::Around {
            store_open_s: median(setups.build),
            trace_overhead_frac: (traced_wall - wall_s) / wall_s,
            ops_failed_frac,
            badco_cpi_max_err,
        };
        let m = layers::per_layer(study, &around);
        let busiest = m
            .iter()
            .filter(|m| {
                ["badco.busy_s", "sim_cpu.busy_s", "sampling.resample_s"].contains(&m.name.as_str())
            })
            .max_by(|a, b| a.value.total_cmp(&b.value))
            .expect("busy metrics are reported");
        println!("largest busy time: {} ({} s)", busiest.name, busiest.value);
        println!("trace file: {}", trace_path.display());
        m
    } else {
        vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new(
                "cpu_s",
                median(untraced.iter().map(|p| p.cpu_s()).collect()),
                "s",
            ),
            Metric::new("setup_s", fill_s + median(setups.setup), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    for m in &metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// Checks every study against the references for its seed or, for a seed
/// without references, against its first study in this run; `warm_store`
/// studies also against the study that filled the store. Returns the
/// attempted and failed experiment calls.
fn check(wl: Workload, seeds: &[u64], passes: &[Pass], fill: Option<&Expected>) -> (u64, u64) {
    let mut expected: BTreeMap<u64, Expected> = BTreeMap::new();
    for &seed in seeds {
        if let Some(r) = checks::reference(wl.name(), seed) {
            expected.insert(seed, r);
        }
    }
    let per_study = wl.experiments().len() as u64;
    let (mut attempted, mut failed) = (0, 0);
    for (i, s) in passes.iter().flat_map(|p| &p.studies).enumerate() {
        attempted += per_study;
        let got = checks::observed(&s.outputs, &s.obs.counters);
        let want = expected.entry(s.seed).or_insert_with(|| got.clone());
        let mut bad: BTreeSet<String> = BTreeSet::new();
        for (n, e) in &s.errors {
            eprintln!("study {i} (seed {:#x}): {n} failed: {e}", s.seed);
            bad.insert(n.to_string());
        }
        for n in checks::output_mismatches(want, &got) {
            eprintln!(
                "study {i} (seed {:#x}): {n} output differs from the reference",
                s.seed
            );
            bad.insert(n);
        }
        for n in fill
            .map(|f| checks::output_mismatches(f, &got))
            .unwrap_or_default()
        {
            eprintln!("study {i}: {n} output differs from population_small's");
            bad.insert(n);
        }
        let mut broken = checks::count_mismatches(want, &got);
        if wl == Workload::WarmStore {
            let c = |n: &str| s.obs.counters.get(n).copied().unwrap_or(0);
            let misses = s.store.map_or(0, |st| st.misses);
            if c("sim.badco.runs") != 0 || c("sim.detailed.instructions") != 0 || misses != 0 {
                broken.push(format!(
                    "the warm store simulated or missed: badco.runs {}, \
                     sim_cpu.instructions {}, store.misses {misses}",
                    c("sim.badco.runs"),
                    c("sim.detailed.instructions")
                ));
            }
        }
        for b in &broken {
            eprintln!("study {i} (seed {:#x}): {b}", s.seed);
        }
        // A broken study-wide invariant discredits every call in the study.
        failed += if broken.is_empty() && !bad.contains("warmup") {
            bad.len() as u64
        } else {
            per_study
        };
    }
    (attempted, failed)
}

/// fig2's maximum CPI error at `Scale::test()` for `seed`, for workloads
/// that do not run fig2 themselves. Called after every count is read.
fn test_scale_cpi_max_err(seed: u64) -> Result<f64, Error> {
    let (ctx, _) = pass::build(&Workload::PaperTest.scale(seed), None)?;
    Ok(mps_harness::experiments::fig2(&ctx)?.max_error())
}
