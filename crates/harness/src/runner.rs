//! Shared experiment machinery: model building, population simulation and
//! result caching — in memory *and* across processes.
//!
//! Since the parallel-runner rework, [`StudyContext`] uses interior
//! mutability throughout: every accessor takes `&self`, the artifact
//! caches are keyed [`OnceLock`]s (so a concurrent first access builds an
//! artifact exactly once and everyone else blocks on — then shares — the
//! same value), and the expensive builds fan their independent cells out
//! over an [`mps_par`] work-stealing pool sized by [`StudyContext::jobs`].
//! Results are merged in input-index order, so every artifact is
//! bit-identical regardless of the worker count (asserted end to end by
//! `tests/thread_invariance.rs`).
//!
//! Since the durable-runs rework, a context built through
//! [`StudyBuilder`](crate::StudyBuilder) with a store path additionally
//! persists every expensive artifact — populations, BADCO models,
//! reference IPCs, per-policy throughput tables, trace buffers — through
//! an [`mps_store::Store`], so they are *transparently loaded-or-computed
//! across processes*: a second run (or a resumed killed run) hits the
//! store instead of re-simulating. A poisoned artifact file degrades to a
//! recompute (the store quarantines it), never to a wrong result. The
//! public accessors return `Result<_, mps::Error>`; the panicking
//! `*_or_panic` shims of the transition release are gone (API v1).
//!
//! Since the distributed rework, a context built with
//! [`StudyBuilder::workers`](crate::StudyBuilder::workers) additionally
//! carries a [`Coordinator`](crate::dist::Coordinator) that shards
//! experiment-grid cells across worker processes; see [`crate::dist`].

use crate::scale::Scale;
use mps_badco::{BadcoModel, BadcoMulticoreSim, BadcoTiming};
use mps_metrics::{PerfTable, ThroughputMetric, WorkloadPerf};
use mps_sampling::{PairData, Population, Workload};
use mps_sim_cpu::{CoreConfig, MulticoreSim, SimResult};
use mps_stats::rng::Rng;
use mps_store::{ArtifactKey, Error, Store};
use mps_uncore::{PolicyKind, Uncore, UncoreConfig};
use mps_workloads::{suite, BenchmarkSpec, TraceBuffer, TraceCursor, TraceSource};

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// LLC capacity divisor used by all experiments (see
/// [`UncoreConfig::ispass2013_scaled`]): reproduction traces are 10³–10⁴×
/// shorter than the paper's 100 M instructions, so cache capacity scales
/// down with them to preserve working-set-to-cache ratios.
pub const CAPACITY_SCALE: u64 = 16;

/// The capacity-scaled Table II uncore used throughout the experiments.
pub fn experiment_uncore(cores: usize, policy: PolicyKind) -> UncoreConfig {
    UncoreConfig::ispass2013_scaled(cores, policy, CAPACITY_SCALE)
}

/// One detailed-simulation cell: a workload on the `cores`-core
/// experiment machine under one LLC policy.
pub(crate) type DetailedCell<'a> = (usize, PolicyKind, &'a Workload);

/// Batch width used when none is requested: wide enough that the batched
/// kernel's event-horizon skipping and SoA uncore layout pay off, small
/// enough that `jobs` workers still see plenty of independent chunks on
/// the smaller grids.
pub const AUTO_BATCH: usize = 8;

/// Resolves a batch width the way [`mps_par::default_jobs`] resolves a
/// worker count: the `MPS_BATCH` environment variable if set to a
/// positive integer, `0` (or unset) meaning auto ([`AUTO_BATCH`]).
pub fn default_batch() -> usize {
    if let Ok(v) = std::env::var("MPS_BATCH") {
        match v.trim().parse::<usize>() {
            Ok(0) => return AUTO_BATCH,
            Ok(n) => return n,
            Err(_) => {
                eprintln!(
                    "mps-harness: ignoring invalid MPS_BATCH={v:?} (want an integer; 0 = auto)"
                );
            }
        }
    }
    AUTO_BATCH
}

/// Resolves a batch width the way [`mps_par::resolve_jobs`] resolves a
/// job count: a positive explicit request (e.g. a `--batch` flag) wins;
/// `0` or no request means auto, i.e. [`default_batch`].
pub fn resolve_batch(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) if n > 0 => n,
        _ => default_batch(),
    }
}

/// Hit/rebuild statistics for the [`StudyContext`] memoized artifacts.
///
/// A *hit* returns a cached artifact; a *miss* triggers the (expensive)
/// rebuild — or, on a store-backed context, a disk load. Accounting is
/// atomic-consistent under concurrency: when several threads race on the
/// first access to a key, exactly one miss is recorded (the thread that
/// built) and every other thread records a hit, so `hits + misses` always
/// equals the number of accesses. The same figures are mirrored into the
/// `ctx.*` observability counters so they appear in `--profile` reports
/// and `--trace` files; disk-level traffic is accounted separately under
/// `store.*` (see [`StudyContext::store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StudyCacheStats {
    /// BADCO model-set cache hits (keyed by core count).
    pub model_hits: u64,
    /// BADCO model-set rebuilds.
    pub model_misses: u64,
    /// Population-table cache hits (keyed by core count).
    pub population_hits: u64,
    /// Population-table rebuilds.
    pub population_misses: u64,
    /// BADCO per-policy throughput-table cache hits.
    pub table_hits: u64,
    /// BADCO per-policy throughput-table rebuilds.
    pub table_misses: u64,
    /// BADCO single-thread reference-IPC cache hits.
    pub badco_ref_hits: u64,
    /// BADCO single-thread reference-IPC rebuilds.
    pub badco_ref_misses: u64,
    /// Detailed-simulator reference-IPC cache hits.
    pub detailed_ref_hits: u64,
    /// Detailed-simulator reference-IPC rebuilds.
    pub detailed_ref_misses: u64,
    /// Per-benchmark SoA trace-buffer cache hits.
    pub trace_hits: u64,
    /// Per-benchmark SoA trace-buffer captures (one per benchmark used).
    pub trace_misses: u64,
}

impl StudyCacheStats {
    /// Total hits across all artifact kinds.
    pub fn hits(&self) -> u64 {
        self.model_hits
            + self.population_hits
            + self.table_hits
            + self.badco_ref_hits
            + self.detailed_ref_hits
            + self.trace_hits
    }

    /// Total rebuilds across all artifact kinds.
    pub fn misses(&self) -> u64 {
        self.model_misses
            + self.population_misses
            + self.table_misses
            + self.badco_ref_misses
            + self.detailed_ref_misses
            + self.trace_misses
    }
}

/// One keyed artifact cache: build-once semantics per key with exact
/// hit/miss accounting under concurrent access.
///
/// The map guards only the *cells* (cheap to lock); each cell is an
/// [`OnceLock`], so a rebuild runs outside the map lock and concurrent
/// first-accessors of the same key block on the winning builder instead
/// of duplicating its work.
struct ArtifactCache<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_counter: mps_obs::Counter,
    miss_counter: mps_obs::Counter,
    build_span: &'static str,
}

impl<K: Eq + Hash, V: Clone> ArtifactCache<K, V> {
    fn new(hit_name: &'static str, miss_name: &'static str, build_span: &'static str) -> Self {
        ArtifactCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_counter: mps_obs::counter(hit_name),
            miss_counter: mps_obs::counter(miss_name),
            build_span,
        }
    }

    /// Returns the artifact for `key`, building it with `build` on the
    /// first access. Exactly one caller per key ever runs `build`; that
    /// caller records the miss, all others record hits.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let mut built = false;
        let v = cell
            .get_or_init(|| {
                built = true;
                let _span = mps_obs::span(self.build_span);
                build()
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_counter.incr();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.incr();
        }
        v
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Caches everything the experiments share: benchmark suite, BADCO models,
/// per-policy population throughput tables and reference IPCs.
///
/// All accessors take `&self` and the context is `Sync`, so a single
/// instance can be shared across threads; internally the expensive builds
/// run on an [`mps_par`] pool of [`StudyContext::jobs`] workers.
///
/// The documented way to construct one is
/// [`StudyContext::builder`]:
///
/// ```no_run
/// use mps_harness::{Scale, StudyContext};
///
/// let ctx = StudyContext::builder()
///     .scale(Scale::small())
///     .jobs(4)
///     .store("run-store")
///     .resume(true)
///     .build()?;
/// # Ok::<(), mps_store::Error>(())
/// ```
pub struct StudyContext {
    /// The scaling preset in effect.
    pub scale: Scale,
    jobs: usize,
    /// Most lanes per batched detailed-kernel call; resolved, always ≥ 1.
    batch: usize,
    store: Option<Arc<Store>>,
    resume: bool,
    /// Retry count for isolated experiment runs (`--retries`), carried by
    /// the builder.
    pub(crate) retries: u32,
    /// The distributed-execution coordinator, set once by the builder
    /// after assembly when `--workers`/`--dist-addr` asked for one.
    pub(crate) dist: OnceLock<Arc<crate::dist::Coordinator>>,
    suite: Vec<BenchmarkSpec>,
    models: ArtifactCache<usize, Vec<Arc<BadcoModel>>>,
    populations: ArtifactCache<usize, Population>,
    badco_tables: ArtifactCache<(usize, PolicyKind), Arc<PerfTable>>,
    badco_refs: ArtifactCache<usize, Vec<f64>>,
    detailed_refs: ArtifactCache<usize, Vec<f64>>,
    /// Per-benchmark SoA trace buffers (`scale.trace_len` µops each),
    /// keyed by suite index. Every consumer of a benchmark's µop stream —
    /// BADCO training, reference runs, detailed workload runs — replays
    /// the one memoized buffer through a cheap [`TraceCursor`] instead of
    /// re-running the synthetic generator µop by µop.
    traces: ArtifactCache<usize, Arc<TraceBuffer>>,
}

impl std::fmt::Debug for StudyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyContext")
            .field("scale", &self.scale)
            .field("jobs", &self.jobs)
            .field("batch", &self.batch)
            .field("store", &self.store.as_ref().map(|s| s.root().to_owned()))
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

impl StudyContext {
    /// Starts building a context — the documented entry point. See
    /// [`StudyBuilder`](crate::StudyBuilder).
    pub fn builder() -> crate::StudyBuilder {
        crate::StudyBuilder::new()
    }

    /// Creates a fresh in-memory-only context at the given scale, with
    /// the worker count resolved from the environment (`MPS_JOBS`, else
    /// the machine's available parallelism). Anything beyond that —
    /// explicit jobs, batch width, a store, distribution — goes through
    /// [`StudyContext::builder`].
    pub fn new(scale: Scale) -> Self {
        Self::assemble(scale, mps_par::default_jobs(), default_batch(), None, false)
    }

    pub(crate) fn assemble(
        scale: Scale,
        jobs: usize,
        batch: usize,
        store: Option<Arc<Store>>,
        resume: bool,
    ) -> Self {
        StudyContext {
            scale,
            jobs: jobs.max(1),
            batch: batch.max(1),
            store,
            resume,
            retries: 0,
            dist: OnceLock::new(),
            suite: suite(),
            models: ArtifactCache::new("ctx.models.hits", "ctx.models.misses", "ctx.models.build"),
            populations: ArtifactCache::new(
                "ctx.population.hits",
                "ctx.population.misses",
                "ctx.population.build",
            ),
            badco_tables: ArtifactCache::new(
                "ctx.badco_table.hits",
                "ctx.badco_table.misses",
                "ctx.badco_table.build",
            ),
            badco_refs: ArtifactCache::new(
                "ctx.badco_refs.hits",
                "ctx.badco_refs.misses",
                "ctx.badco_refs.build",
            ),
            detailed_refs: ArtifactCache::new(
                "ctx.detailed_refs.hits",
                "ctx.detailed_refs.misses",
                "ctx.detailed_refs.build",
            ),
            traces: ArtifactCache::new("ctx.traces.hits", "ctx.traces.misses", "ctx.traces.build"),
        }
    }

    /// Worker threads used for parallel artifact builds and resampling.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The most lanes per batched detailed-kernel call. A grid runs in
    /// chunks of at most this many cells, narrowed so that it still
    /// splits into at least one chunk per worker (see
    /// [`mps_par::chunk_ranges`]). Always ≥ 1; `1` is the scalar path.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The artifact store backing this context, if one was configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Whether this context serves grid cells from the store's cell
    /// artifacts (`--resume`).
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The distributed-execution coordinator, if the builder started one
    /// (`--workers` / `--dist-addr`). Experiment grids route their cells
    /// through it via [`crate::dist::run_grid`].
    pub fn coordinator(&self) -> Option<&Arc<crate::dist::Coordinator>> {
        self.dist.get()
    }

    /// The isolation budget carried from the builder (`--retries`), for
    /// [`crate::run_isolated`].
    pub fn isolate_options(&self) -> crate::IsolateOptions {
        crate::IsolateOptions {
            retries: self.retries,
        }
    }

    /// Disk-level hit/miss/corruption counters, if a store is attached.
    pub fn store_stats(&self) -> Option<mps_store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Hit/rebuild statistics of the context's artifact caches so far.
    pub fn cache_stats(&self) -> StudyCacheStats {
        StudyCacheStats {
            model_hits: self.models.hits(),
            model_misses: self.models.misses(),
            population_hits: self.populations.hits(),
            population_misses: self.populations.misses(),
            table_hits: self.badco_tables.hits(),
            table_misses: self.badco_tables.misses(),
            badco_ref_hits: self.badco_refs.hits(),
            badco_ref_misses: self.badco_refs.misses(),
            detailed_ref_hits: self.detailed_refs.hits(),
            detailed_ref_misses: self.detailed_refs.misses(),
            trace_hits: self.traces.hits(),
            trace_misses: self.traces.misses(),
        }
    }

    /// Canonical input-spec string for this context's artifacts: every
    /// knob an artifact's value depends on, so equal specs mean reusable
    /// results. The kernel code revision rides in the store header (see
    /// [`mps_store::KERNEL_REV`]), not in the spec.
    pub fn artifact_spec(&self, extra: &str) -> String {
        let suite_hash = {
            let names: Vec<&str> = self.suite.iter().map(|b| b.name()).collect();
            mps_store::fnv1a64(names.join(",").as_bytes())
        };
        format!(
            "{};suite={:016x};cap={CAPACITY_SCALE};{extra}",
            self.scale.spec_string(),
            suite_hash
        )
    }

    /// Loads `kind` from the store (if configured) or computes and
    /// persists it. Disk problems — missing, truncated, bit-flipped or
    /// undecodable artifacts — degrade to a recompute; they never produce
    /// an error or a wrong value.
    fn load_or_compute<V>(
        &self,
        kind: &'static str,
        extra_spec: &str,
        decode: impl Fn(&[u8]) -> Result<V, Error>,
        encode: impl Fn(&V) -> Vec<u8>,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.load(kind, extra_spec, decode) {
            return v;
        }
        let v = compute();
        self.persist(kind, extra_spec, &v, encode);
        v
    }

    /// The stored copy of `kind`, if a store is configured and holds one
    /// that decodes; a record that fails decoding is quarantined.
    fn load<V>(
        &self,
        kind: &'static str,
        extra_spec: &str,
        decode: impl Fn(&[u8]) -> Result<V, Error>,
    ) -> Option<V> {
        let store = self.store.as_deref()?;
        let key = ArtifactKey::new(kind, self.artifact_spec(extra_spec));
        let bytes = store.get(&key)?;
        match decode(&bytes) {
            Ok(v) => Some(v),
            Err(e) => {
                // The record passed the store's integrity checks but
                // failed domain decoding: quarantine + recompute.
                store.quarantine_key(&key, &e);
                None
            }
        }
    }

    /// Writes `v` to the store, if one is configured.
    fn persist<V>(
        &self,
        kind: &'static str,
        extra_spec: &str,
        v: &V,
        encode: impl Fn(&V) -> Vec<u8>,
    ) {
        let Some(store) = self.store.as_deref() else {
            return;
        };
        let key = ArtifactKey::new(kind, self.artifact_spec(extra_spec));
        if let Err(e) = store.put(&key, &encode(v)) {
            // A full disk must not kill a running study.
            eprintln!("warning: could not persist {kind}: {e}");
        }
    }

    fn check_bench(&self, bench: usize) -> Result<(), Error> {
        if bench >= self.suite.len() {
            return Err(Error::InvalidInput(format!(
                "benchmark index {bench} out of range (suite has {})",
                self.suite.len()
            )));
        }
        Ok(())
    }

    pub(crate) fn check_workload(&self, w: &Workload) -> Result<(), Error> {
        for &b in w.benchmarks() {
            self.check_bench(b as usize)?;
        }
        Ok(())
    }

    /// The memoized SoA trace buffer of suite benchmark `bench`, captured
    /// on first use (or loaded from the store). The buffer holds exactly
    /// `scale.trace_len` µops — the detailed core's thread-restart period
    /// and BADCO's training slice — so a cycling [`TraceCursor`] over it
    /// is stream-identical to the benchmark's generator under the restart
    /// rule.
    pub fn trace_buffer(&self, bench: usize) -> Result<Arc<TraceBuffer>, Error> {
        self.check_bench(bench)?;
        Ok(self.traces.get_or_build(bench, || {
            let name = self.suite[bench].name().to_owned();
            self.load_or_compute(
                "trace",
                &format!("bench={name}"),
                crate::persist::decode_trace,
                |v| crate::persist::encode_trace(v),
                || {
                    let mut source = self.suite[bench].trace();
                    Arc::new(TraceBuffer::capture(&mut source, self.scale.trace_len))
                },
            )
        }))
    }

    /// A fresh replay cursor (positioned at µop 0) over
    /// [`Self::trace_buffer`].
    pub fn trace_cursor(&self, bench: usize) -> Result<TraceCursor, Error> {
        Ok(self.trace_buffer(bench)?.cursor())
    }

    fn trace_cursor_cached(&self, bench: usize) -> TraceCursor {
        self.trace_buffer(bench)
            .expect("suite indices are validated by callers")
            .cursor()
    }

    /// The 22-benchmark suite.
    pub fn suite(&self) -> &[BenchmarkSpec] {
        &self.suite
    }

    /// The five paper policies.
    pub fn policies(&self) -> [PolicyKind; 5] {
        PolicyKind::PAPER_POLICIES
    }

    /// All 10 unordered policy pairs `(X, Y)` in paper order
    /// (LRU>RND, LRU>FIFO, ..., DIP>DRRIP).
    pub fn policy_pairs(&self) -> Vec<(PolicyKind, PolicyKind)> {
        let p = PolicyKind::PAPER_POLICIES;
        let mut pairs = Vec::new();
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                pairs.push((p[i], p[j]));
            }
        }
        pairs
    }

    /// The workload population table for a core count (full for 2 cores,
    /// scale-sized subsamples for 4 and 8).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for core counts other than 2, 4 and 8.
    pub fn population(&self, cores: usize) -> Result<Population, Error> {
        if !matches!(cores, 2 | 4 | 8) {
            return Err(Error::InvalidInput(format!(
                "populations are defined for 2, 4 and 8 cores (got {cores})"
            )));
        }
        Ok(self.populations.get_or_build(cores, || {
            self.load_or_compute(
                "population",
                &format!("cores={cores}"),
                crate::persist::decode_population,
                crate::persist::encode_population,
                || {
                    let scale = &self.scale;
                    let b = 22;
                    let mut rng = Rng::new(scale.seed ^ (cores as u64) << 8);
                    match cores {
                        2 => Population::full(b, 2),
                        4 => {
                            if scale.pop_4core_is_full() {
                                Population::full(b, 4)
                            } else {
                                Population::subsampled(b, 4, scale.pop_4core, &mut rng)
                            }
                        }
                        _ => Population::subsampled(b, 8, scale.pop_8core, &mut rng),
                    }
                },
            )
        }))
    }

    /// BADCO models for every benchmark, trained with the Table II timing
    /// of the given core count. The per-benchmark ideal/pessimal training
    /// runs are independent, so they fan out over the worker pool.
    pub fn models(&self, cores: usize) -> Result<Vec<Arc<BadcoModel>>, Error> {
        if cores == 0 || cores > 64 {
            return Err(Error::InvalidInput(format!(
                "implausible core count {cores}"
            )));
        }
        // Trace buffers feed the training runs; surface their validation
        // before entering the infallible build path.
        self.trace_buffer(0)?;
        Ok(self.models.get_or_build(cores, || {
            self.load_or_compute(
                "badco-models",
                &format!("cores={cores}"),
                crate::persist::decode_models,
                |v| crate::persist::encode_models(v),
                || {
                    let timing =
                        BadcoTiming::from_uncore(&experiment_uncore(cores, PolicyKind::Lru));
                    let trace_len = self.scale.trace_len;
                    mps_par::par_map_indexed(self.jobs, &self.suite, |i, b| {
                        Arc::new(BadcoModel::build(
                            b.name(),
                            &CoreConfig::ispass2013(),
                            &self.trace_cursor_cached(i),
                            trace_len,
                            timing,
                        ))
                    })
                },
            )
        }))
    }

    /// Single-thread reference IPCs (benchmark alone on the reference
    /// machine, LRU uncore) measured with BADCO.
    pub fn badco_reference_ipcs(&self, cores: usize) -> Result<Vec<f64>, Error> {
        let models = self.models(cores)?;
        Ok(self.badco_refs.get_or_build(cores, || {
            self.load_or_compute(
                "badco-refs",
                &format!("cores={cores}"),
                crate::persist::decode_f64s,
                |v| crate::persist::encode_f64s(v),
                || {
                    mps_par::par_map_indexed(self.jobs, &models, |_, m| {
                        let uncore = Uncore::new(experiment_uncore(cores, PolicyKind::Lru), 1);
                        let r = BadcoMulticoreSim::new(uncore, vec![Arc::clone(m)]).run();
                        r.ipc[0]
                    })
                },
            )
        }))
    }

    /// Single-thread reference IPCs measured with the detailed simulator.
    pub fn detailed_reference_ipcs(&self, cores: usize) -> Result<Vec<f64>, Error> {
        if cores == 0 || cores > 64 {
            return Err(Error::InvalidInput(format!(
                "implausible core count {cores}"
            )));
        }
        self.trace_buffer(0)?;
        Ok(self.detailed_refs.get_or_build(cores, || {
            self.load_or_compute(
                "detailed-refs",
                &format!("cores={cores}"),
                crate::persist::decode_f64s,
                |v| crate::persist::encode_f64s(v),
                || {
                    let solo: Vec<Workload> = (0..self.suite.len())
                        .map(|b| Workload::new(vec![b as u16]))
                        .collect();
                    let cells: Vec<DetailedCell<'_>> =
                        solo.iter().map(|w| (cores, PolicyKind::Lru, w)).collect();
                    self.detailed_runs(&cells)
                        .expect("solo workloads index the suite")
                        .into_iter()
                        .map(|r| r.ipc[0])
                        .collect()
                },
            )
        }))
    }

    /// Runs one workload under one policy with BADCO; returns per-core IPC.
    pub fn badco_run(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<Vec<f64>, Error> {
        self.check_workload(w)?;
        let models = self.models(cores)?;
        Ok(Self::badco_run_with(&models, cores, policy, w))
    }

    /// [`Self::badco_run`] against an already-fetched model set (the
    /// per-workload cell of the parallel table build, which prefetches the
    /// models once instead of taking the cache lock from every worker).
    /// Public because the validation sweep substitutes deliberately
    /// perturbed model sets here (see [`crate::validate`]).
    pub fn badco_run_with(
        models: &[Arc<BadcoModel>],
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Vec<f64> {
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        let bound: Vec<Arc<BadcoModel>> = w
            .benchmarks()
            .iter()
            .map(|&b| Arc::clone(&models[b as usize]))
            .collect();
        BadcoMulticoreSim::new(uncore, bound).run().ipc
    }

    /// Runs one workload through the *stable validation entry point* of
    /// the detailed simulator ([`mps_sim_cpu::validation_ipcs`]) and
    /// returns only the per-core IPCs: the scalar reference the
    /// differential validation tests compare BADCO against, insulated
    /// from changes to [`Self::detailed_run`]'s richer result surface.
    /// `mps-harness validate` measures the same quantity in one
    /// `detailed_runs` fan-out, bit-identically.
    pub fn validation_detailed_ipcs(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<Vec<f64>, Error> {
        self.check_workload(w)?;
        let traces: Vec<Box<dyn TraceSource>> = w
            .benchmarks()
            .iter()
            .map(|&b| Box::new(self.trace_cursor_cached(b as usize)) as Box<dyn TraceSource>)
            .collect();
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        Ok(mps_sim_cpu::validation_ipcs(
            CoreConfig::ispass2013(),
            uncore,
            traces,
            self.scale.trace_len,
        ))
    }

    /// One lockstep lane per workload: a replay cursor over the memoized
    /// trace of each of its benchmarks.
    fn lanes<'w>(
        &self,
        workloads: impl Iterator<Item = &'w Workload>,
    ) -> Vec<Vec<Box<dyn TraceSource>>> {
        workloads
            .map(|w| {
                w.benchmarks()
                    .iter()
                    .map(|&b| {
                        Box::new(self.trace_cursor_cached(b as usize)) as Box<dyn TraceSource>
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs every `(cores, policy, workload)` cell through the detailed
    /// simulator in one fan-out and returns the results in input order.
    ///
    /// Cells that share a machine configuration (core count and policy)
    /// form a group, and [`mps_par::chunk_ranges`] splits each group into
    /// lockstep chunks of at most [`Self::batch`] lanes. Every chunk of
    /// every group is one task of a single [`mps_par::par_map_indexed`]
    /// call, so a study's small grids keep the whole pool busy instead of
    /// meeting at a barrier per group. `run_batch` is bit-identical to a
    /// scalar run per cell, so results cannot tell the chunking. Cell
    /// latency is attributed evenly across a chunk's lanes.
    pub(crate) fn detailed_runs(
        &self,
        cells: &[DetailedCell<'_>],
    ) -> Result<Vec<SimResult>, Error> {
        for &(_, _, w) in cells {
            self.check_workload(w)?;
        }
        let mut groups: Vec<((usize, PolicyKind), Vec<usize>)> = Vec::new();
        for (i, &(cores, policy, _)) in cells.iter().enumerate() {
            match groups.iter_mut().find(|(key, _)| *key == (cores, policy)) {
                Some((_, members)) => members.push(i),
                None => groups.push(((cores, policy), vec![i])),
            }
        }
        let mut chunks: Vec<((usize, PolicyKind), &[usize])> = Vec::new();
        for (key, members) in &groups {
            let ranges = mps_par::chunk_ranges(members.len(), self.jobs, self.batch);
            mps_par::record_fill(&ranges);
            chunks.extend(ranges.into_iter().map(|r| (*key, &members[r])));
        }
        let cell_hist = mps_obs::histogram("table.cell.latency_us");
        let runs =
            mps_par::par_map_indexed(self.jobs, &chunks, |_, &((cores, policy), members)| {
                let started = std::time::Instant::now();
                let out = mps_sim_cpu::run_batch(
                    &CoreConfig::ispass2013(),
                    &experiment_uncore(cores, policy),
                    self.lanes(members.iter().map(|&i| cells[i].2)),
                    self.scale.trace_len,
                );
                let per_cell = started.elapsed() / members.len() as u32;
                for _ in members {
                    cell_hist.record_duration(per_cell);
                }
                out
            });
        let mut slots: Vec<Option<SimResult>> = (0..cells.len()).map(|_| None).collect();
        for ((_, members), results) in chunks.iter().zip(runs) {
            for (&i, r) in members.iter().zip(results) {
                slots[i] = Some(r);
            }
        }
        Ok(slots
            .into_iter()
            .map(|r| r.expect("every cell runs in exactly one chunk"))
            .collect())
    }

    /// Runs one workload under one policy with the detailed simulator.
    pub fn detailed_run(
        &self,
        cores: usize,
        policy: PolicyKind,
        w: &Workload,
    ) -> Result<SimResult, Error> {
        self.check_workload(w)?;
        let traces: Vec<Box<dyn TraceSource>> = w
            .benchmarks()
            .iter()
            .map(|&b| Box::new(self.trace_cursor_cached(b as usize)) as Box<dyn TraceSource>)
            .collect();
        let uncore = Uncore::new(experiment_uncore(cores, policy), w.cores());
        Ok(MulticoreSim::new(CoreConfig::ispass2013(), uncore, traces).run(self.scale.trace_len))
    }

    /// The BADCO per-workload performance table of one policy over the
    /// whole population for `cores` — the expensive artifact behind
    /// Figures 3–7, computed once, cached and (when a store is attached)
    /// persisted across processes. Each `(policy, workload)` cell is an
    /// independent simulation, so the grid fans out over the worker pool;
    /// rows are merged in population order, keeping the table
    /// bit-identical for every `jobs` value.
    pub fn badco_table(&self, cores: usize, policy: PolicyKind) -> Result<Arc<PerfTable>, Error> {
        // Pull the inputs through the validated accessors first; the
        // cached build below then cannot fail.
        let pop = self.population(cores)?;
        let refs = self.badco_reference_ipcs(cores)?;
        let models = self.models(cores)?;
        Ok(self.badco_tables.get_or_build((cores, policy), || {
            self.load_or_compute(
                "perf-table",
                &format!("cores={cores};policy={policy:?}"),
                |b| crate::persist::decode_perf_table(b).map(Arc::new),
                |v| crate::persist::encode_perf_table(v),
                || {
                    let workloads: Vec<Workload> = pop.workloads().to_vec();
                    let cell_hist = mps_obs::histogram("table.cell.latency_us");
                    let rows = mps_par::par_map_indexed(self.jobs, &workloads, |_, w| {
                        let started = std::time::Instant::now();
                        let ipcs = Self::badco_run_with(&models, cores, policy, w);
                        cell_hist.record_duration(started.elapsed());
                        ipcs
                    });
                    let mut table = PerfTable::new(refs.clone());
                    for (w, ipcs) in workloads.iter().zip(rows) {
                        table.push(WorkloadPerf::new(
                            w.benchmarks().iter().map(|&b| b as usize).collect(),
                            ipcs,
                        ));
                    }
                    Arc::new(table)
                },
            )
        }))
    }

    /// Detailed-simulator performance table over a list of workloads,
    /// one independent simulation per workload, fanned out like
    /// [`Self::badco_table`]. Persisted under a key that hashes the
    /// workload list, so e.g. Figure 7's full-population detailed pass is
    /// simulated once per store lifetime.
    pub fn detailed_table(
        &self,
        cores: usize,
        policy: PolicyKind,
        workloads: &[Workload],
    ) -> Result<PerfTable, Error> {
        Ok(self.detailed_tables(cores, &[policy], workloads)?.remove(0))
    }

    /// [`Self::detailed_table`] for several policies over the same
    /// workloads, one table per policy in `policies` order. Each table
    /// keeps its own store key; every policy the store does not hold is
    /// simulated in one fan-out over all its `(policy, workload)` cells.
    pub fn detailed_tables(
        &self,
        cores: usize,
        policies: &[PolicyKind],
        workloads: &[Workload],
    ) -> Result<Vec<PerfTable>, Error> {
        for w in workloads {
            self.check_workload(w)?;
        }
        let refs = self.detailed_reference_ipcs(cores)?;
        let wl_hash = {
            let mut bytes = Vec::with_capacity(workloads.len() * 4);
            for w in workloads {
                for &b in w.benchmarks() {
                    bytes.push(b as u8);
                }
                bytes.push(0xFF);
            }
            mps_store::fnv1a64(&bytes)
        };
        let spec = |p: PolicyKind| format!("cores={cores};policy={p:?};wl={wl_hash:016x}");
        let mut tables: Vec<Option<PerfTable>> = policies
            .iter()
            .map(|&p| {
                self.load(
                    "detailed-table",
                    &spec(p),
                    crate::persist::decode_perf_table,
                )
            })
            .collect();
        let cells: Vec<DetailedCell<'_>> = policies
            .iter()
            .zip(&tables)
            .filter(|(_, t)| t.is_none())
            .flat_map(|(&p, _)| workloads.iter().map(move |w| (cores, p, w)))
            .collect();
        let mut runs = self.detailed_runs(&cells)?.into_iter();
        for (&p, slot) in policies.iter().zip(&mut tables) {
            if slot.is_some() {
                continue;
            }
            let mut table = PerfTable::new(refs.clone());
            for (w, r) in workloads.iter().zip(runs.by_ref()) {
                table.push(WorkloadPerf::new(
                    w.benchmarks().iter().map(|&b| b as usize).collect(),
                    r.ipc,
                ));
            }
            self.persist(
                "detailed-table",
                &spec(p),
                &table,
                crate::persist::encode_perf_table,
            );
            *slot = Some(table);
        }
        Ok(tables.into_iter().flatten().collect())
    }

    /// Pair data (per-workload throughputs of X and Y) under a metric from
    /// the cached BADCO population tables.
    pub fn badco_pair_data(
        &self,
        cores: usize,
        x: PolicyKind,
        y: PolicyKind,
        metric: ThroughputMetric,
    ) -> Result<PairData, Error> {
        let tx = self.badco_table(cores, x)?.throughputs(metric);
        let ty = self.badco_table(cores, y)?.throughputs(metric);
        Ok(PairData::new(metric, tx, ty))
    }

    /// A fresh deterministic RNG stream for an experiment.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(
            self.scale
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyBuilder;

    fn ctx() -> StudyContext {
        StudyContext::new(Scale::test())
    }

    #[test]
    fn populations_have_scale_sizes() {
        let c = ctx();
        assert_eq!(c.population(2).unwrap().len(), 253);
        assert_eq!(c.population(4).unwrap().len(), Scale::test().pop_4core);
        assert_eq!(c.population(8).unwrap().len(), Scale::test().pop_8core);
    }

    #[test]
    fn invalid_inputs_error_instead_of_panicking() {
        let c = ctx();
        assert!(matches!(c.population(3), Err(Error::InvalidInput(_))));
        assert!(matches!(c.models(0), Err(Error::InvalidInput(_))));
        assert!(matches!(c.trace_buffer(22), Err(Error::InvalidInput(_))));
        let w = Workload::new(vec![21, 22]);
        assert!(matches!(
            c.detailed_run(2, PolicyKind::Lru, &w),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn policy_pairs_are_ten() {
        let c = ctx();
        let pairs = c.policy_pairs();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], (PolicyKind::Lru, PolicyKind::Random));
        assert_eq!(pairs[9], (PolicyKind::Dip, PolicyKind::Drrip));
    }

    #[test]
    fn models_cover_suite_and_cache() {
        let c = ctx();
        let m = c.models(2).unwrap();
        assert_eq!(m.len(), 22);
        let again = c.models(2).unwrap();
        assert!(Arc::ptr_eq(&m[0], &again[0]), "models must be cached");
    }

    #[test]
    fn badco_table_is_cached_and_aligned() {
        let c = ctx();
        // Shrink further for test speed: 2-core population is 253.
        let t1 = c.badco_table(2, PolicyKind::Lru).unwrap();
        let t2 = c.badco_table(2, PolicyKind::Lru).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.len(), c.population(2).unwrap().len());
    }

    #[test]
    fn pair_data_has_population_length() {
        let c = ctx();
        let d = c
            .badco_pair_data(
                2,
                PolicyKind::Lru,
                PolicyKind::Random,
                ThroughputMetric::WeightedSpeedup,
            )
            .unwrap();
        assert_eq!(d.len(), 253);
    }

    #[test]
    fn reference_ipcs_are_positive() {
        let c = ctx();
        for ipc in c.badco_reference_ipcs(2).unwrap() {
            assert!(ipc > 0.0 && ipc < 4.0);
        }
    }

    #[test]
    fn tables_are_jobs_invariant() {
        // The same table built with 1 and 4 workers must be bit-identical.
        let t1 = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(1)
            .build()
            .unwrap()
            .badco_table(2, PolicyKind::Drrip)
            .unwrap()
            .throughputs(ThroughputMetric::IpcThroughput);
        let t4 = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(4)
            .build()
            .unwrap()
            .badco_table(2, PolicyKind::Drrip)
            .unwrap()
            .throughputs(ThroughputMetric::IpcThroughput);
        assert_eq!(t1, t4);
    }

    #[test]
    fn concurrent_first_access_builds_once() {
        // Eight threads race on the same cold artifact: the cache must
        // rebuild exactly once and account exactly one miss, with every
        // other access a hit (hits + misses == accesses).
        let c = StudyBuilder::new()
            .scale(Scale::test())
            .jobs(2)
            .build()
            .unwrap();
        let threads = 8;
        let tables: Vec<Arc<PerfTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| c.badco_table(2, PolicyKind::Fifo).unwrap()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        });
        for t in &tables[1..] {
            assert!(
                Arc::ptr_eq(&tables[0], t),
                "all threads must share one build"
            );
        }
        let stats = c.cache_stats();
        assert_eq!(stats.table_misses, 1, "exactly one rebuild: {stats:?}");
        assert_eq!(
            stats.table_hits,
            threads as u64 - 1,
            "every other access is a hit: {stats:?}"
        );
    }

    #[test]
    fn store_round_trips_artifacts_across_contexts() {
        let dir = std::env::temp_dir().join(format!(
            "mps-runner-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            crate::StudyBuilder::new()
                .scale(Scale::test())
                .jobs(1)
                .store(&dir)
                .build()
                .unwrap()
        };
        let cold = build();
        let t_cold = cold.badco_table(2, PolicyKind::Lru).unwrap();
        let refs_cold = cold.detailed_reference_ipcs(2).unwrap();
        let stats = cold.store_stats().unwrap();
        assert!(
            stats.puts >= 2,
            "cold run must persist artifacts: {stats:?}"
        );

        let warm = build();
        let t_warm = warm.badco_table(2, PolicyKind::Lru).unwrap();
        let refs_warm = warm.detailed_reference_ipcs(2).unwrap();
        assert_eq!(*t_warm, *t_cold, "loaded table must be bit-identical");
        assert_eq!(refs_warm, refs_cold);
        let stats = warm.store_stats().unwrap();
        assert!(stats.hits >= 2, "warm run must hit the store: {stats:?}");
    }

    #[test]
    fn detailed_tables_keep_per_policy_store_keys() {
        let dir = std::env::temp_dir().join(format!(
            "mps-runner-tables-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            crate::StudyBuilder::new()
                .scale(Scale::test())
                .jobs(2)
                .store(&dir)
                .build()
                .unwrap()
        };
        let cold = build();
        let ws: Vec<Workload> = cold.population(2).unwrap().workloads()[..5].to_vec();
        let lru = cold.detailed_table(2, PolicyKind::Lru, &ws).unwrap();

        // The warm context finds the LRU table under its one-policy key
        // and simulates (and stores) only the DIP table.
        let warm = build();
        let both = warm
            .detailed_tables(2, &[PolicyKind::Lru, PolicyKind::Dip], &ws)
            .unwrap();
        let stats = warm.store_stats().unwrap();
        assert_eq!(
            stats.puts, 1,
            "only the missing policy is stored: {stats:?}"
        );
        assert_eq!(both[0], lru);
        assert_eq!(
            both[1],
            StudyContext::new(Scale::test())
                .detailed_table(2, PolicyKind::Dip, &ws)
                .unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_scales_do_not_share_artifacts() {
        let a = StudyContext::new(Scale::test()).artifact_spec("cores=2");
        let b = StudyContext::new(Scale::small()).artifact_spec("cores=2");
        assert_ne!(a, b);
    }
}
