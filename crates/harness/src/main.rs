//! `mps-harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! mps-harness [run] <experiment...> [RUN FLAGS] [--retries N] [--profile] [--trace FILE]
//! mps-harness validate [RUN FLAGS] [--fail-on THRESHOLDS] [--baseline FILE]
//!                      [--write-baseline FILE] [--perturb FACTOR]
//! mps-harness trace <FILE> [--folded] [--worker ID]
//! mps-harness trace diff <BASELINE> <CONTENDER> [--fail-on-regress PCT] [--json] [--worker ID]
//! mps-harness runs list|show <N|last> [--ledger FILE] [--store DIR]
//! mps-harness report [--ledger FILE] [--store DIR] [--out FILE]
//! mps-harness worker --connect HOST:PORT [--id NAME]
//!
//! RUN FLAGS, shared by `run` and `validate`:
//!   [--scale test|small|full] [--out DIR] [--jobs N] [--batch N] [--store DIR]
//!   [--resume] [--no-store] [--workers N] [--dist-addr HOST:PORT]
//!   [--lease-ttl SECS] [--metrics-addr HOST:PORT]
//!
//! experiments:
//!   table1 table2 table3 table4
//!   fig1 fig2 fig3 fig4 fig5 fig6 fig7
//!   overhead   — the §VII-A CPU-hours example
//!   guideline  — §VII decisions for every policy pair
//!   ablation   — stratification parameter / allocation / clustering sweep
//!   energy     — per-policy energy (the "why detailed simulation" motivation)
//!   dw         — d(w) distribution histograms (the stratification input)
//!   profile    — run the representative pipeline and print the per-phase
//!                profile report (see docs/observability.md)
//!   all        — every experiment, in paper order
//!
//! --scale defaults to `small` for `run` and `test` for `validate`.
//! --out DIR writes each report as DIR/<name>.txt plus DIR/<name>.csv
//! where the report has tabular data.
//! --jobs N sets the worker-thread count for parallel simulation grids.
//! N = 0 means "auto": the MPS_JOBS environment variable, else all
//! available cores (the same default as omitting the flag). Results are
//! bit-identical for every N.
//! --batch N runs at most N detailed-sim combinations in lockstep per
//! kernel call. N = 0 means "auto": MPS_BATCH, else 8 (the same default
//! as omitting the flag); 1 is the scalar path; every N is bit-identical.
//! --store DIR (or MPS_STORE=DIR) persists expensive artifacts — BADCO
//! models, populations, throughput tables, traces, rendered reports — so
//! reruns and other processes load instead of recompute; experiment
//! grids additionally store each finished cell there.
//! --resume continues a killed run from the store's cell results,
//! bit-identically to an uninterrupted run (requires --store/MPS_STORE).
//! --no-store ignores MPS_STORE and runs fully in memory.
//! --retries N re-attempts an experiment that panicked. A failing
//! experiment is reported and skipped; the exit code is nonzero if any
//! failed.
//! --profile appends the profile pipeline + report after the experiments.
//! --trace FILE streams structured JSONL span/event records to FILE
//! (equivalent to MPS_OBS_OUT=FILE). Both need the `obs` feature (on by
//! default).
//! --metrics-addr HOST:PORT (or MPS_METRICS_ADDR) serves live
//! OpenMetrics-style text — counters, gauges, histogram quantiles, run
//! metadata — on a background thread for the run's lifetime; port 0
//! picks an ephemeral port (printed to stderr). Needs the `obs` feature.
//!
//! The `trace` subcommand analyzes a JSONL file offline: a span-tree
//! summary with inclusive/exclusive times (or folded flamegraph stacks
//! with --folded), and `trace diff` compares two runs, flagging span
//! wall-time and counter-total regressions beyond PCT percent growth
//! (default 10). With --fail-on-regress, regressions exit with code 3
//! for CI gating; `par.*` scheduling counters are reported but never
//! gate (they legitimately vary with --jobs). --json emits the diff as
//! machine-readable JSON instead of the table.
//!
//! The `validate` subcommand sweeps a seeded grid of workload
//! combinations through both the detailed simulator and BADCO, reports
//! per-thread IPC error, throughput-rank inversions and per-MPKI-stratum
//! error, and emits a schema-versioned JSONL report. --fail-on gates the
//! report's *drift against a pinned baseline* (`mean-abs-err=5%` allows
//! 5 % relative growth of the mean absolute IPC error;
//! `rank-inversions=3` allows 3 new inversions); breaches exit with code
//! 4 for CI, mirroring `trace diff --fail-on-regress`. The baseline is
//! `--baseline FILE`, else the one embedded for the default test-scale
//! sweep; --write-baseline FILE records a new baseline after an
//! intentional model change (see docs/validation.md). --perturb FACTOR
//! (or MPS_VALIDATE_PERTURB) scales the BADCO model coefficients to
//! prove the gate fires; --out DIR writes validate.txt/.csv/.jsonl.
//!
//! Every completed `run` or `validate` with a store appends one record
//! to the store's run ledger (`ledger.jsonl`): config hash, kernel
//! revision, scale, per-experiment durations, store hit ratio and the
//! final convergence summary. `runs list` tabulates past runs, `runs
//! show N` (or `last`) dumps one record's fields, and `report` renders
//! the whole ledger into a self-contained HTML dashboard (inline SVG, no
//! scripts, byte-deterministic for a given ledger). The ledger is found
//! via --ledger FILE, or <store>/ledger.jsonl from --store/MPS_STORE.
//!
//! Experiment grids can be sharded across worker *processes*:
//! `--workers N` spawns N local workers, `--dist-addr HOST:PORT` also
//! accepts remote `mps-harness worker --connect HOST:PORT` processes,
//! and `--lease-ttl SECS` tunes dead-worker detection. Artifacts are
//! byte-identical to a single-process run; see docs/distributed.md.
//! ```

use mps_harness::experiments as exp;
use mps_harness::export::{Artifact, CsvExport};
use mps_harness::{run_isolated, Error, Scale, StudyContext};
use mps_store::{ArtifactKey, Ledger, RunRecord};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The run flags `run` and `validate` share, as a usage line spells them.
macro_rules! run_flags_usage {
    () => {
        "[--scale test|small|full] [--out DIR] [--jobs N] [--batch N] [--store DIR] [--resume] \
         [--no-store] [--workers N] [--dist-addr HOST:PORT] [--lease-ttl SECS] \
         [--metrics-addr HOST:PORT]"
    };
}

const RUN_USAGE: &str = concat!(
    "usage: mps-harness [run] <experiment...> ",
    run_flags_usage!(),
    " [--retries N] [--profile] [--trace FILE]"
);
const VALIDATE_USAGE: &str = concat!(
    "usage: mps-harness validate ",
    run_flags_usage!(),
    " [--fail-on mean-abs-err=PCT%,max-abs-err=PCT%,rank-inversions=N] \
     [--baseline FILE] [--write-baseline FILE] [--perturb FACTOR]"
);
const TRACE_USAGE: &str = "usage: mps-harness trace <FILE> [--folded] [--worker ID]\n\
     usage: mps-harness trace diff <BASELINE> <CONTENDER> [--fail-on-regress PCT] [--json] \
     [--worker ID]";
const RUNS_USAGE: &str = "usage: mps-harness runs list|show <N|last> [--ledger FILE] [--store DIR]";
const REPORT_USAGE: &str = "usage: mps-harness report [--ledger FILE] [--store DIR] [--out FILE]";
const WORKER_USAGE: &str = "usage: mps-harness worker --connect HOST:PORT [--id NAME]";

/// What `run --help` adds after every subcommand's usage line.
const RUN_NOTES: &str = "\
--jobs 0 (or omitting the flag) means auto: MPS_JOBS, else all available cores
--batch N runs at most N detailed-sim combinations in lockstep per kernel call, fewer when a \
grid has too few cells to give every worker a chunk (0 or omitted = auto: MPS_BATCH, else 8; \
1 = scalar; any N is bit-identical)
--store DIR (or MPS_STORE=DIR) persists artifacts and grid cells; --resume continues a killed \
run; --no-store overrides MPS_STORE
--workers N shards grids across N local worker processes (requires --store); --dist-addr also \
accepts remote `worker --connect` processes; artifacts stay byte-identical to a single-process \
run (see docs/distributed.md)
--metrics-addr (or MPS_METRICS_ADDR) serves live /metrics; MPS_HEARTBEAT_SECS tunes progress \
heartbeats (0 = off)";

/// A subcommand's entry point: its exit code, or why it stopped early.
type Cli = fn(&[String]) -> Result<i32, Exit>;

/// Every subcommand but `run`, the default, with its usage text.
const SUBCOMMANDS: &[(&str, &str, Cli)] = &[
    ("validate", VALIDATE_USAGE, validate_cli),
    ("trace", TRACE_USAGE, trace_cli),
    ("runs", RUNS_USAGE, runs_cli),
    ("report", REPORT_USAGE, report_cli),
    ("worker", WORKER_USAGE, worker_cli),
];

/// How a subcommand stops early.
enum Exit {
    /// `--help`: the usage text, exit 0.
    Help,
    /// A malformed command line: the message and the usage text, exit 2.
    Usage(String),
    /// A failure at run time: `error: <message>`, exit 1.
    Error(String),
}

/// A cursor over one subcommand's arguments.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`, which must be non-empty.
    fn value(&mut self, flag: &str, needs: &str) -> Result<&'a str, Exit> {
        self.next()
            .filter(|v| !v.is_empty())
            .ok_or_else(|| Exit::Usage(format!("{flag} needs {needs}")))
    }

    /// The value following `flag`, converted by `parse`.
    fn parse_with<T>(
        &mut self,
        flag: &str,
        needs: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Exit> {
        let v = self.value(flag, needs)?;
        parse(v).ok_or_else(|| Exit::Usage(format!("{flag} needs {needs} (got '{v}')")))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str, needs: &str) -> Result<T, Exit> {
        self.parse_with(flag, needs, |v| v.parse().ok())
    }
}

/// Loads and summarizes one JSONL trace file. `worker` restricts span
/// records to one fleet member: an id matches its worker-tagged spans,
/// the literal `local` matches untagged (coordinator-recorded) spans.
/// Events always pass through.
fn load_trace(path: &str, worker: Option<&str>) -> Result<mps_obs::analyze::TraceSummary, Exit> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Exit::Error(format!("read {path}: {e}")))?;
    let mut records =
        mps_obs::jsonl::parse_all(&text).map_err(|e| Exit::Error(format!("{path}: {e}")))?;
    if let Some(want) = worker {
        records.retain(|r| match r {
            mps_obs::jsonl::Record::Span { worker, .. } => match worker {
                Some(w) => w == want,
                None => want == "local",
            },
            mps_obs::jsonl::Record::Event { .. } => true,
        });
    }
    Ok(mps_obs::analyze::summarize(&records))
}

/// The `trace` subcommand: offline analysis of `--trace` output. Exits 3
/// when `trace diff --fail-on-regress` found regressions.
fn trace_cli(args: &[String]) -> Result<i32, Exit> {
    let diff = args.first().is_some_and(|a| a == "diff");
    let mut files: Vec<&str> = Vec::new();
    let mut worker: Option<&str> = None;
    let (mut folded, mut json, mut fail_on_regress) = (false, false, false);
    let mut threshold = 10.0f64;
    let mut args = Args(args[usize::from(diff)..].iter());
    while let Some(arg) = args.next() {
        match arg {
            "--worker" => worker = Some(args.value(arg, "a worker id")?),
            "--folded" if !diff => folded = true,
            "--json" if diff => json = true,
            "--fail-on-regress" if diff => {
                fail_on_regress = true;
                // PCT is optional: a bare flag keeps the default.
                if let Some(p) = args.0.as_slice().first().and_then(|v| v.parse().ok()) {
                    threshold = p;
                    args.next();
                }
            }
            flag if flag.starts_with('-') => {
                return Err(Exit::Usage(format!("unknown trace flag '{flag}'")));
            }
            file => files.push(file),
        }
    }
    if !diff {
        let &[file] = files.as_slice() else {
            return Err(Exit::Usage("trace needs exactly one trace file".to_owned()));
        };
        let s = load_trace(file, worker)?;
        print!("{}", if folded { s.folded() } else { s.render() });
        return Ok(0);
    }
    let &[a, b] = files.as_slice() else {
        return Err(Exit::Usage(
            "trace diff needs exactly two trace files".to_owned(),
        ));
    };
    let d = mps_obs::analyze::diff(&load_trace(a, worker)?, &load_trace(b, worker)?, threshold);
    if json {
        println!("{}", d.to_json());
    } else {
        print!("{}", d.render());
    }
    if fail_on_regress && !d.regressions().is_empty() {
        eprintln!(
            "trace diff: failing on {} regression(s)",
            d.regressions().len()
        );
        return Ok(3);
    }
    Ok(0)
}

/// Parses a ledger subcommand's arguments: `--ledger FILE`, else
/// `ledger.jsonl` in `--store DIR` or `MPS_STORE`, names the ledger, and
/// every other argument goes to `own`.
fn parse_ledger<'a>(
    args: &'a [String],
    mut own: impl FnMut(&'a str, &mut Args<'a>) -> Result<(), Exit>,
) -> Result<Ledger, Exit> {
    let mut ledger: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = std::env::var_os("MPS_STORE").map(PathBuf::from);
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--ledger" => ledger = Some(args.value(arg, "a file path")?.into()),
            "--store" => store = Some(args.value(arg, "a directory")?.into()),
            other => own(other, &mut args)?,
        }
    }
    let path = ledger
        .or_else(|| store.map(|d| d.join("ledger.jsonl")))
        .ok_or_else(|| {
            Exit::Usage("no ledger: pass --ledger FILE, or --store DIR / MPS_STORE".to_owned())
        })?;
    Ok(Ledger::at_path(path))
}

/// The `runs` subcommand: list or inspect the run ledger.
fn runs_cli(args: &[String]) -> Result<i32, Exit> {
    let mut words: Vec<&str> = Vec::new();
    let ledger = parse_ledger(args, |arg, _| {
        words.push(arg);
        Ok(())
    })?;
    let records = ledger.read_all().map_err(|e| Exit::Error(e.to_string()))?;
    match words.first().copied() {
        Some("list") => {
            println!(
                "{:>4} {:>9} {:>5} {:>9} {:>6} {:>5}  experiments",
                "run", "wall s", "jobs", "hitratio", "fails", "conv"
            );
            for (i, r) in records.iter().enumerate() {
                let conv = r
                    .fields
                    .keys()
                    .filter(|k| k.starts_with("conv.") && k.ends_with(".cv"))
                    .count();
                println!(
                    "{:>4} {:>9} {:>5} {:>9} {:>6} {:>5}  {}",
                    i + 1,
                    r.f64("wall_ms")
                        .map_or_else(|| "-".to_owned(), |ms| format!("{:.1}", ms / 1000.0)),
                    r.get("jobs").unwrap_or("-"),
                    r.f64("store.hit_ratio")
                        .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}")),
                    r.get("failures").unwrap_or("0"),
                    conv,
                    r.get("experiments").unwrap_or("-"),
                );
            }
            println!("{} run(s) in {}", records.len(), ledger.path().display());
            Ok(0)
        }
        Some("show") => {
            let which = words.get(1).copied().unwrap_or("last");
            let idx = if which == "last" {
                records.len().checked_sub(1)
            } else {
                which.parse::<usize>().ok().and_then(|n| n.checked_sub(1))
            };
            let Some(rec) = idx.and_then(|i| records.get(i)) else {
                let msg = format!(
                    "no run '{which}' in {} ({} recorded)",
                    ledger.path().display(),
                    records.len()
                );
                return Err(if records.is_empty() {
                    Exit::Error(msg)
                } else {
                    Exit::Usage(msg)
                });
            };
            for (k, v) in &rec.fields {
                println!("{k} = {v}");
            }
            Ok(0)
        }
        _ => Err(Exit::Usage("runs needs list or show".to_owned())),
    }
}

/// The `report` subcommand: render the ledger as a self-contained HTML
/// dashboard.
fn report_cli(args: &[String]) -> Result<i32, Exit> {
    let mut out = PathBuf::from("report.html");
    let ledger = parse_ledger(args, |arg, args| match arg {
        "--out" => {
            out = args.value(arg, "a file path")?.into();
            Ok(())
        }
        other => Err(Exit::Usage(format!("unknown report argument '{other}'"))),
    })?;
    let records = ledger.read_all().map_err(|e| Exit::Error(e.to_string()))?;
    let html = mps_harness::report_html::render_dashboard(&records);
    std::fs::write(&out, html).map_err(|e| Exit::Error(format!("write {}: {e}", out.display())))?;
    eprintln!(
        "report: {} run(s) from {} -> {}",
        records.len(),
        ledger.path().display(),
        out.display()
    );
    Ok(0)
}

/// The `worker` subcommand: join a coordinator as a distributed grid
/// worker. Normally spawned by the coordinator itself (`--workers N`);
/// run by hand only to attach extra machines to `--dist-addr`.
fn worker_cli(args: &[String]) -> Result<i32, Exit> {
    let mut connect: Option<&str> = None;
    let mut id: Option<String> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--connect" => connect = Some(args.value(arg, "HOST:PORT")?),
            "--id" => id = Some(args.value(arg, "a name")?.to_owned()),
            "--help" | "-h" => return Err(Exit::Help),
            other => return Err(Exit::Usage(format!("unknown worker argument '{other}'"))),
        }
    }
    let connect =
        connect.ok_or_else(|| Exit::Usage("worker needs --connect HOST:PORT".to_owned()))?;
    mps_harness::dist::worker_main(connect, id)
        .map_err(|e| Exit::Error(format!("worker failed: {e}")))?;
    Ok(0)
}

/// The run flags `run` and `validate` share, parsed once.
struct RunFlags {
    scale: Scale,
    /// `None` is auto, which `--jobs 0` also asks for.
    jobs: Option<usize>,
    batch: Option<usize>,
    store: Option<PathBuf>,
    resume: bool,
    out: Option<PathBuf>,
    workers: usize,
    dist_addr: Option<String>,
    lease_ttl: Option<Duration>,
    metrics_addr: Option<String>,
}

impl RunFlags {
    /// Parses `args` starting from the subcommand's default `scale`: the
    /// shared flags here, every other argument by `own`. `MPS_STORE` and
    /// `MPS_METRICS_ADDR` are the defaults of `--store` and
    /// `--metrics-addr`.
    fn parse<'a>(
        args: &'a [String],
        scale: Scale,
        mut own: impl FnMut(&'a str, &mut Args<'a>) -> Result<(), Exit>,
    ) -> Result<RunFlags, Exit> {
        // Before parsing, so `run --trace FILE` overrides MPS_OBS_OUT.
        mps_obs::init_from_env();
        let mut flags = RunFlags {
            scale,
            jobs: None,
            batch: None,
            store: std::env::var_os("MPS_STORE").map(PathBuf::from),
            resume: false,
            out: None,
            workers: 0,
            dist_addr: None,
            lease_ttl: None,
            metrics_addr: std::env::var("MPS_METRICS_ADDR").ok(),
        };
        let auto = "a non-negative integer (0 = auto)";
        let addr = "HOST:PORT (port 0 = ephemeral)";
        let mut args = Args(args.iter());
        while let Some(arg) = args.next() {
            match arg {
                "--scale" => flags.scale = args.parse_with(arg, "test|small|full", Scale::parse)?,
                "--jobs" => flags.jobs = Some(args.parse(arg, auto)?).filter(|&n| n > 0),
                "--batch" => flags.batch = Some(args.parse(arg, auto)?),
                "--store" => flags.store = Some(args.value(arg, "a directory")?.into()),
                "--no-store" => flags.store = None,
                "--resume" => flags.resume = true,
                "--out" => flags.out = Some(args.value(arg, "a directory")?.into()),
                "--workers" => flags.workers = args.parse(arg, "a non-negative integer")?,
                "--dist-addr" => flags.dist_addr = Some(args.value(arg, addr)?.to_owned()),
                "--lease-ttl" => {
                    let secs = args.parse_with(arg, "a positive number of seconds", |v| {
                        v.parse::<u64>().ok().filter(|&s| s > 0)
                    })?;
                    flags.lease_ttl = Some(Duration::from_secs(secs));
                }
                "--metrics-addr" => flags.metrics_addr = Some(args.value(arg, addr)?.to_owned()),
                _ => own(arg, &mut args)?,
            }
        }
        Ok(flags)
    }

    /// Builds the context and starts what every run carries: the `--out`
    /// directory, the run metadata, the metrics server, the progress
    /// heartbeat and the `harness.start` event.
    fn start(self, retries: u32) -> Result<Session, Exit> {
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir)
                .map_err(|e| Exit::Error(format!("cannot create {}: {e}", dir.display())))?;
        }
        let mut builder = StudyContext::builder()
            .scale(self.scale)
            .resume(self.resume)
            .retries(retries)
            .workers(self.workers);
        if let Some(jobs) = self.jobs {
            builder = builder.jobs(jobs);
        }
        if let Some(batch) = self.batch {
            builder = builder.batch(batch);
        }
        if let Some(dir) = &self.store {
            builder = builder.store(dir);
        }
        if let Some(addr) = self.dist_addr {
            builder = builder.dist_addr(addr);
        }
        if let Some(ttl) = self.lease_ttl {
            builder = builder.lease_ttl(ttl);
        }
        let ctx = builder.build().map_err(|e| Exit::Error(e.to_string()))?;
        // Run metadata for the /metrics `mps_run_info` line.
        mps_obs::set_meta("schema", mps_store::SCHEMA.to_string());
        mps_obs::set_meta("kernel_rev", mps_store::KERNEL_REV.to_string());
        mps_obs::set_meta("jobs", ctx.jobs().to_string());
        mps_obs::set_meta("batch", ctx.batch().to_string());
        mps_obs::set_meta("scale", ctx.scale.spec_string());
        mps_obs::set_meta("store", ctx.store().is_some().to_string());
        mps_obs::set_meta("resume", ctx.resume().to_string());
        mps_obs::set_meta("workers", self.workers.to_string());
        if let Some(addr) = &self.metrics_addr {
            match mps_obs::serve_metrics(addr) {
                Ok(bound) => eprintln!("metrics: serving http://{bound}/metrics"),
                Err(e) => eprintln!("note: metrics server disabled ({e})"),
            }
        }
        let heartbeat_secs = std::env::var("MPS_HEARTBEAT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(5);
        if heartbeat_secs > 0 {
            mps_harness::heartbeat::start(Duration::from_secs(heartbeat_secs));
        }
        mps_obs::event(
            "harness.start",
            &[
                ("trace_len", ctx.scale.trace_len.to_string()),
                ("pop_4core", ctx.scale.pop_4core.to_string()),
                (
                    "confidence_samples",
                    ctx.scale.confidence_samples.to_string(),
                ),
                ("jobs", ctx.jobs().to_string()),
                ("batch", ctx.batch().to_string()),
                ("store", ctx.store().is_some().to_string()),
                ("resume", ctx.resume().to_string()),
            ],
        );
        Ok(Session {
            ctx,
            out: self.out,
            t0: Instant::now(),
        })
    }
}

/// One `run` or `validate` invocation, from [`RunFlags::start`] to
/// [`Session::finish`].
struct Session {
    ctx: StudyContext,
    out: Option<PathBuf>,
    t0: Instant,
}

impl Session {
    /// Writes `body` to `<--out DIR>/<file>`, when `--out` was given.
    fn write(&self, file: &str, body: &str) -> Result<(), Exit> {
        let Some(dir) = &self.out else {
            return Ok(());
        };
        let path = dir.join(file);
        std::fs::write(&path, body)
            .map_err(|e| Exit::Error(format!("write {}: {e}", path.display())))
    }

    /// Ends the run: closes the heartbeat line, and with a store prints
    /// the `store:` summary and appends `rec`, completed with the fields
    /// every run records, to the store's run ledger.
    fn finish(self, experiments: &str, failures: usize, mut rec: RunRecord) {
        // Terminate the `\r` progress line (with a final summary) before
        // any closing stderr output lands mid-line.
        mps_harness::heartbeat::finish();
        let ctx = &self.ctx;
        if let Some(store) = ctx.store() {
            let stats = store.stats();
            eprintln!(
                "store: {} hits, {} misses, {} puts, {} corrupt, {} evicted",
                stats.hits, stats.misses, stats.puts, stats.corrupt, stats.evicted
            );
            // The same summary as a structured record, so trace consumers
            // don't have to scrape stderr.
            mps_obs::event(
                "store.summary",
                &[
                    ("hits", stats.hits.to_string()),
                    ("misses", stats.misses.to_string()),
                    ("puts", stats.puts.to_string()),
                    ("corrupt", stats.corrupt.to_string()),
                    ("evicted", stats.evicted.to_string()),
                ],
            );
            let wall = self.t0.elapsed();
            rec.set(
                "started_at_unix",
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs().saturating_sub(wall.as_secs()))
                    .to_string(),
            );
            rec.set("wall_ms", wall.as_millis().to_string());
            rec.set("schema", mps_store::SCHEMA.to_string());
            rec.set("kernel_rev", mps_store::KERNEL_REV.to_string());
            rec.set("jobs", ctx.jobs().to_string());
            rec.set("batch", ctx.batch().to_string());
            rec.set("scale", ctx.scale.spec_string());
            rec.set(
                "config_hash",
                ArtifactKey::new("run", ctx.artifact_spec("run")).hash_hex(),
            );
            rec.set("experiments", experiments);
            rec.set("failures", failures.to_string());
            rec.set("store.hits", stats.hits.to_string());
            rec.set("store.misses", stats.misses.to_string());
            rec.set("store.puts", stats.puts.to_string());
            if stats.hits + stats.misses > 0 {
                rec.set(
                    "store.hit_ratio",
                    format!(
                        "{:.3}",
                        stats.hits as f64 / (stats.hits + stats.misses) as f64
                    ),
                );
            }
            for e in mps_obs::estimators_snapshot() {
                let c = &e.stats;
                if c.count == 0 {
                    continue;
                }
                rec.set(&format!("conv.{}.n", e.name), c.count.to_string());
                rec.set(&format!("conv.{}.cv", e.name), format!("{}", c.cv));
                if c.required_w != usize::MAX {
                    rec.set(
                        &format!("conv.{}.required_w", e.name),
                        c.required_w.to_string(),
                    );
                }
                rec.set(
                    &format!("conv.{}.confidence", e.name),
                    format!("{}", c.confidence),
                );
            }
            if let Some(h) = mps_obs::histograms_snapshot()
                .into_iter()
                .find(|h| h.name == mps_harness::heartbeat::CELL_LATENCY_HIST)
            {
                let sparse: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, c)| format!("{i}:{c}"))
                    .collect();
                if !sparse.is_empty() {
                    rec.set("hist.grid.cell.latency_us", sparse.join(","));
                }
            }
            record_provenance(&mut rec, ctx);
            let ledger = Ledger::in_store(store);
            match ledger.append(&rec) {
                Ok(()) => eprintln!("ledger: run recorded in {}", ledger.path().display()),
                Err(e) => eprintln!("warning: could not append run ledger: {e}"),
            }
        }
        mps_obs::flush();
    }
}

/// Appends distributed-run provenance to a ledger record: shard counts,
/// lease steals/requeues, and per-(grid, worker) cell/renewal counts, so
/// `runs show` attributes every remotely computed cell to the worker
/// process that produced it.
fn record_provenance(rec: &mut RunRecord, ctx: &StudyContext) {
    let Some(coordinator) = ctx.coordinator() else {
        return;
    };
    let prov = coordinator.provenance();
    rec.set("dist.cells.remote", prov.cells_remote.to_string());
    rec.set("dist.cells.local", prov.cells_local.to_string());
    rec.set("dist.cells.requeued", prov.requeued.to_string());
    rec.set("dist.leases.stolen", prov.leases_stolen.to_string());
    let workers: std::collections::BTreeSet<&str> = prov
        .per_worker
        .keys()
        .map(|(_, worker)| worker.as_str())
        .collect();
    rec.set("dist.workers", workers.len().to_string());
    for ((grid, worker), (cells, renewals, wall_us)) in &prov.per_worker {
        rec.set(&format!("dist.{grid}.{worker}.cells"), cells.to_string());
        rec.set(
            &format!("dist.{grid}.{worker}.renewals"),
            renewals.to_string(),
        );
        rec.set(
            &format!("dist.{grid}.{worker}.wall_us"),
            wall_us.to_string(),
        );
    }
}

/// The `validate` subcommand: the BADCO-vs-detailed error-bound sweep
/// with optional baseline-drift gating. Exits 4 when `--fail-on`
/// thresholds are breached.
fn validate_cli(args: &[String]) -> Result<i32, Exit> {
    let mut fail_on: Option<mps_harness::FailOn> = None;
    let mut baseline_file: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut perturb: Option<f64> = std::env::var("MPS_VALIDATE_PERTURB")
        .ok()
        .and_then(|v| v.parse().ok());
    // Validation defaults to the fast deterministic test scale — it is a
    // model-consistency gate, not a paper-scale experiment.
    let flags = RunFlags::parse(args, Scale::test(), |arg, args| {
        match arg {
            "--fail-on" => {
                let v = args.value(arg, "thresholds")?;
                let f = mps_harness::FailOn::parse(v);
                fail_on = Some(f.map_err(|e| Exit::Usage(format!("--fail-on: {e}")))?);
            }
            "--baseline" => baseline_file = Some(args.value(arg, "a file path")?.into()),
            "--write-baseline" => write_baseline = Some(args.value(arg, "a file path")?.into()),
            "--perturb" => {
                perturb = Some(args.parse_with(arg, "a finite positive factor", |v| {
                    v.parse::<f64>().ok().filter(|f| f.is_finite() && *f > 0.0)
                })?);
            }
            "--help" | "-h" => return Err(Exit::Help),
            other => return Err(Exit::Usage(format!("unknown validate argument '{other}'"))),
        }
        Ok(())
    })?;
    let session = flags.start(0)?;

    let opts = mps_harness::ValidateOptions {
        perturb: perturb.unwrap_or(1.0),
        ..mps_harness::ValidateOptions::default()
    };
    let report = match mps_harness::validate::run(&session.ctx, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: validate failed: {e}");
            session.finish("validate", 1, RunRecord::new());
            return Ok(1);
        }
    };
    print!("{report}");
    let jsonl = report.to_jsonl();
    session.write("validate.txt", &report.to_string())?;
    session.write("validate.csv", &report.csv())?;
    session.write("validate.jsonl", &jsonl)?;
    if let Some(file) = &write_baseline {
        std::fs::write(file, &jsonl)
            .map_err(|e| Exit::Error(format!("write baseline {}: {e}", file.display())))?;
        eprintln!("validate: baseline written to {}", file.display());
    }

    let mut rec = RunRecord::new();
    let summary = &report.summary;
    rec.set(
        "validate.mean_abs_err",
        format!("{}", summary.ipc_err.mean_abs),
    );
    rec.set(
        "validate.max_abs_err",
        format!("{}", summary.ipc_err.max_abs),
    );
    rec.set(
        "validate.rank_inversions",
        summary.rank_inversions.to_string(),
    );
    rec.set("validate.perturb", format!("{}", opts.perturb));
    session.finish("validate", 0, rec);

    let Some(gate) = fail_on else { return Ok(0) };
    let baseline = match &baseline_file {
        Some(file) => std::fs::read_to_string(file)
            .map_err(|e| format!("read baseline {}: {e}", file.display()))
            .and_then(|text| {
                mps_harness::Baseline::parse(&text)
                    .map_err(|e| format!("baseline {}: {e}", file.display()))
            }),
        None => mps_harness::Baseline::embedded(&report.spec).ok_or_else(|| {
            format!(
                "no embedded baseline for spec '{}'; pass --baseline FILE \
                 (generate one with --write-baseline, see docs/validation.md)",
                report.spec
            )
        }),
    };
    let baseline = match baseline {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(2);
        }
    };
    let breaches = gate.breaches(&report, &baseline);
    if breaches.is_empty() {
        eprintln!("validate: within baseline drift thresholds");
        return Ok(0);
    }
    eprintln!("validate: failing on {} drift breach(es):", breaches.len());
    for b in &breaches {
        eprintln!("  {b}");
    }
    Ok(4)
}

/// One experiment's rendering: its text report and, for tabular
/// experiments, its CSV.
type Rendered = (String, Option<String>);

/// Table III's speed report, kept for `overhead`, which derives from it.
type Speeds = RefCell<Option<exp::SpeedReport>>;

/// How an experiment renders its report.
#[derive(Clone, Copy)]
enum Render {
    /// A pure function of the context, so a warm store serves the
    /// rendered report without touching the simulators.
    Pure(fn(&StudyContext) -> Result<Rendered, Error>),
    /// Table III measures wall-clock speed and `overhead` derives from
    /// it: never served from the cache, and both share one measurement.
    Timed(fn(&StudyContext, &Speeds) -> Result<Rendered, Error>),
}

use Render::{Pure, Timed};

/// Every experiment, in paper order (`all` runs them in this order).
const EXPERIMENTS: &[(&str, Render)] = &[
    ("table1", Pure(|_| Ok((exp::table1(), None)))),
    ("table2", Pure(|_| Ok((exp::table2(), None)))),
    (
        "table3",
        Timed(|ctx, s| Ok(with_csv(&measure_speeds(ctx, s)?))),
    ),
    ("table4", Pure(|ctx| Ok(with_csv(&exp::table4(ctx)?)))),
    ("fig1", Pure(|_| Ok(with_csv(&exp::fig1())))),
    ("fig2", Pure(|ctx| Ok(with_csv(&exp::fig2(ctx)?)))),
    ("fig3", Pure(|ctx| Ok(with_csv(&exp::fig3(ctx)?)))),
    ("fig4", Pure(|ctx| Ok(with_csv(&exp::fig4(ctx)?)))),
    ("fig5", Pure(|ctx| Ok(with_csv(&exp::fig5(ctx)?)))),
    ("fig6", Pure(|ctx| Ok(with_csv(&exp::fig6(ctx)?)))),
    ("fig7", Pure(|ctx| Ok(with_csv(&exp::fig7(ctx)?)))),
    (
        "overhead",
        Timed(|ctx, s| {
            let measured = s.borrow().clone();
            let speeds = match measured {
                Some(speeds) => speeds,
                None => measure_speeds(ctx, s)?,
            };
            Ok((exp::overhead(ctx, &speeds).to_string(), None))
        }),
    ),
    ("guideline", Pure(|ctx| Ok(with_csv(&exp::guideline(ctx)?)))),
    ("ablation", Pure(|ctx| Ok(with_csv(&exp::ablation(ctx)?)))),
    (
        "energy",
        Pure(|ctx| Ok((exp::energy(ctx)?.to_string(), None))),
    ),
    ("dw", Pure(|ctx| Ok((exp::dw(ctx)?.to_string(), None)))),
];

fn with_csv(report: &(impl std::fmt::Display + CsvExport)) -> Rendered {
    (report.to_string(), Some(report.csv()))
}

fn measure_speeds(ctx: &StudyContext, speeds: &Speeds) -> Result<exp::SpeedReport, Error> {
    let r = exp::table3(ctx)?;
    *speeds.borrow_mut() = Some(r.clone());
    Ok(r)
}

/// Renders one experiment in isolation (see [`run_isolated`]), serving
/// and filling the store's rendered-report cache for pure experiments.
fn render(ctx: &StudyContext, name: &str, how: Render, speeds: &Speeds) -> Result<Rendered, Error> {
    let opts = ctx.isolate_options();
    let pure = match how {
        Timed(timed) => return run_isolated(name, opts, || timed(ctx, speeds)),
        Pure(pure) => pure,
    };
    let Some(store) = ctx.store() else {
        return run_isolated(name, opts, || pure(ctx));
    };
    let key = ArtifactKey::new("report", ctx.artifact_spec(&format!("exp={name}")));
    let cached = store.get(&key).and_then(|bytes| {
        Artifact::from_bytes(&bytes)
            .map_err(|e| store.quarantine_key(&key, &e))
            .ok()
    });
    if let Some(a) = cached {
        return Ok((a.text, (!a.csv.is_empty()).then_some(a.csv)));
    }
    let (text, csv) = run_isolated(name, opts, || pure(ctx))?;
    let a = Artifact {
        name: name.to_owned(),
        text: text.clone(),
        csv: csv.clone().unwrap_or_default(),
    };
    if let Err(e) = store.put(&key, &a.to_bytes()) {
        eprintln!("warning: could not persist report {name}: {e}");
    }
    Ok((text, csv))
}

/// `run --help`: every subcommand's usage, the experiments and the notes
/// on the shared flags.
fn overview() -> String {
    let mut s = RUN_USAGE.to_owned();
    for (_, usage, _) in SUBCOMMANDS {
        s.push('\n');
        s.push_str(usage);
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "{s}\nexperiments: {} profile all\n{RUN_NOTES}",
        names.join(" ")
    )
}

/// The `run` subcommand (also the bare form): regenerate the named
/// experiments. Exits 1 if any failed.
fn run_cli(args: &[String]) -> Result<i32, Exit> {
    let mut which: Vec<&str> = Vec::new();
    let mut profile = false;
    let mut retries = 0u32;
    let flags = RunFlags::parse(args, Scale::small(), |arg, args| {
        match arg {
            "--profile" => profile = true,
            "--retries" => retries = args.parse(arg, "a non-negative integer")?,
            "--trace" => {
                let file = args.value(arg, "a file path")?;
                if !mps_obs::enabled() {
                    eprintln!("note: built without the `obs` feature; --trace will record nothing");
                }
                mps_obs::set_sink_path(file)
                    .map_err(|e| Exit::Error(format!("cannot open trace file {file}: {e}")))?;
            }
            "--help" | "-h" => return Err(Exit::Help),
            // `run` is the explicit subcommand form (`mps-harness run
            // --resume`); the bare form stays equivalent.
            "run" => {}
            name => which.push(name),
        }
        Ok(())
    })?;
    let selected: Vec<(&'static str, Render)> = if which.is_empty() || which.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        let mut selected = Vec::new();
        for name in which {
            if name == "profile" {
                profile = true;
                continue;
            }
            let found = EXPERIMENTS.iter().find(|&&(n, _)| n == name);
            selected
                .push(*found.ok_or_else(|| Exit::Usage(format!("unknown experiment '{name}'")))?);
        }
        selected
    };

    let session = flags.start(retries)?;
    let speeds = Speeds::default();
    let mut failures: Vec<(&str, Error)> = Vec::new();
    let mut rec = RunRecord::new();
    for &(name, how) in &selected {
        let t0 = Instant::now();
        let span = mps_obs::span(name);
        mps_obs::event("harness.experiment.start", &[("name", name.to_string())]);
        match render(&session.ctx, name, how, &speeds) {
            Ok((text, csv)) => {
                print!("{text}");
                session.write(&format!("{name}.txt"), &text)?;
                if let Some(csv) = csv {
                    session.write(&format!("{name}.csv"), &csv)?;
                }
                span.finish();
                mps_obs::event(
                    "harness.experiment.done",
                    &[
                        ("name", name.to_string()),
                        ("wall_ms", t0.elapsed().as_millis().to_string()),
                    ],
                );
                println!();
            }
            Err(e) => {
                eprintln!("error: {name} failed: {e}");
                mps_obs::event(
                    "harness.experiment.failed",
                    &[("name", name.to_string()), ("error", e.to_string())],
                );
                failures.push((name, e));
                span.finish();
            }
        }
        rec.set(
            &format!("exp.{name}.ms"),
            t0.elapsed().as_millis().to_string(),
        );
    }

    if profile {
        match exp::profile(&session.ctx) {
            Ok(report) => {
                let text = report.to_string();
                print!("{text}");
                session.write("profile.txt", &text)?;
            }
            Err(e) => {
                eprintln!("error: profile failed: {e}");
                failures.push(("profile", e));
            }
        }
    }
    let names: Vec<&str> = selected.iter().map(|&(name, _)| name).collect();
    session.finish(&names.join(","), failures.len(), rec);
    if failures.is_empty() {
        return Ok(0);
    }
    eprintln!("{} experiment(s) failed:", failures.len());
    for (name, e) in &failures {
        eprintln!("  {name}: {e}");
    }
    Ok(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = SUBCOMMANDS
        .iter()
        .find(|(name, ..)| args.first().is_some_and(|a| a == name));
    let (usage, outcome) = match sub {
        Some(&(_, usage, cli)) => (usage.to_owned(), cli(&args[1..])),
        None => (overview(), run_cli(&args)),
    };
    let code = match outcome {
        Ok(code) => code,
        Err(Exit::Help) => {
            eprintln!("{usage}");
            0
        }
        Err(Exit::Usage(msg)) => {
            eprintln!("{msg}\n{usage}");
            2
        }
        Err(Exit::Error(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    };
    std::process::exit(code);
}
