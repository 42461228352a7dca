//! Batched vs scalar detailed simulation over a multi-combination sweep.
//!
//! The sweep is 16 two-core combinations from the **stall-dominated
//! region** of the study grid — CPI-matched pairs of the suite's two
//! most memory-bound benchmarks (mcf at ~51 cycles/µop solo, astar at
//! ~24), simulated over shared memoized `TraceBuffer`s exactly as
//! `StudyContext` population and throughput-table loops feed the
//! kernel. That region is the batched kernel's target: event-horizon
//! skipping turns the long memory-stall gaps between µop events into
//! single clock jumps, so the win scales with stall share. Pairs must be
//! CPI-matched: under the paper's restart rule a fast benchmark paired
//! with a slow one re-runs cache-warm at near-peak IPC, pinning the
//! lane's event horizon at `now + 1` and erasing the skip win (the
//! mixed-class region of the grid sees ~1.0–1.6x, not the ≥2x here —
//! see `docs/performance.md`).
//!
//! Each leg runs the *same* 16 combinations, chunked at batch width B:
//!
//! * `sweep16_2core_b1`  — B = 1: `run_batch` delegates to the scalar
//!   `MulticoreSim::run` path, so this leg IS the pre-PR baseline;
//! * `sweep16_2core_b4`  — B = 4 lanes per batch;
//! * `sweep16_2core_b16` — the whole sweep as one 16-lane batch.
//!
//! Results are bit-identical across legs (asserted once outside the
//! timed region); only wall-clock differs. The committed reference
//! numbers live in `benches/results/sim_speed_post_pr8.jsonl`.
//!
//! The CPI-matched sweep is the batched kernel's best case, not a study.
//! The `study51_2core_2500_b8` leg is shaped like one: 51 of the 253
//! two-core pairs a population draws from (every fifth in the suite's
//! pair order, so memory-bound, compute-bound and mixed pairs all
//! appear), 2,500 µops per thread, run as the harness runs a detailed
//! grid on one thread — `run_batch` in 8-lane chunks, the last one
//! ragged. Its finish-cycle digest is pinned and asserted before timing,
//! so the leg also checks that the kernel still computes the same thing.
//! Numbers before and after event-driven issue select:
//! `benches/results/batch_kernel_{polled,event}_issue.jsonl`.

use criterion::{criterion_group, criterion_main, Criterion};
use mps_bench::bench_uncore;
use mps_sim_cpu::{run_batch, CoreConfig};
use mps_uncore::PolicyKind;
use mps_workloads::{suite, TraceBuffer, TraceSource};
use std::hint::black_box;
use std::sync::Arc;

const TRACE_LEN: u64 = 2_000;
const COMBOS: usize = 16;

/// µops per thread in the study-shaped leg (`Scale::test()`'s detailed
/// slice).
const STUDY_LEN: u64 = 2_500;
/// Lanes per `run_batch` call in the study-shaped leg (the harness's
/// automatic batch width).
const STUDY_BATCH: usize = 8;
/// FNV-1a digest of every lane's finish cycles in the study-shaped leg.
const STUDY_DIGEST: u64 = 0xda56_017b_fb01_d8e6;

/// The stall-dominated 2-core combinations: CPI-matched self-pairs of
/// the two highest-CPI benchmarks, weighted toward the most
/// memory-bound (13 mcf pairs, 3 astar pairs, interleaved).
fn combo_indices(specs: &[mps_workloads::BenchmarkSpec]) -> Vec<(usize, usize)> {
    let idx = |name: &str| {
        specs
            .iter()
            .position(|s| s.name() == name)
            .unwrap_or_else(|| panic!("{name} not in suite"))
    };
    let mcf = idx("mcf");
    let astar = idx("astar");
    (0..COMBOS)
        .map(|i| {
            // Every 5th slot is an astar pair (slots 4, 9, 14): 3 of 16.
            if i % 5 == 4 {
                (astar, astar)
            } else {
                (mcf, mcf)
            }
        })
        .collect()
}

fn run_sweep(bufs: &[Arc<TraceBuffer>], combos: &[(usize, usize)], batch: usize) -> Vec<Vec<f64>> {
    let cfg = CoreConfig::ispass2013();
    let ucfg = bench_uncore(2, PolicyKind::Lru);
    let mut ipcs = Vec::with_capacity(combos.len());
    for chunk in combos.chunks(batch) {
        let lanes: Vec<Vec<Box<dyn TraceSource>>> = chunk
            .iter()
            .map(|&(a, b)| {
                vec![
                    Box::new(bufs[a].cursor()) as Box<dyn TraceSource>,
                    Box::new(bufs[b].cursor()) as Box<dyn TraceSource>,
                ]
            })
            .collect();
        for r in run_batch(&cfg, &ucfg, lanes, TRACE_LEN) {
            ipcs.push(r.ipc);
        }
    }
    ipcs
}

/// Every fifth two-core pair `(a, b)`, `a <= b`, in suite order.
fn study_pairs(n_benchmarks: usize) -> Vec<(usize, usize)> {
    (0..n_benchmarks)
        .flat_map(|a| (a..n_benchmarks).map(move |b| (a, b)))
        .step_by(5)
        .collect()
}

/// Runs the study-shaped leg and returns its finish-cycle digest.
fn run_study(bufs: &[Arc<TraceBuffer>], pairs: &[(usize, usize)]) -> u64 {
    let cfg = CoreConfig::ispass2013();
    let ucfg = bench_uncore(2, PolicyKind::Lru);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for chunk in pairs.chunks(STUDY_BATCH) {
        let lanes: Vec<Vec<Box<dyn TraceSource>>> = chunk
            .iter()
            .map(|&(a, b)| {
                vec![
                    Box::new(bufs[a].cursor()) as Box<dyn TraceSource>,
                    Box::new(bufs[b].cursor()) as Box<dyn TraceSource>,
                ]
            })
            .collect();
        for r in run_batch(&cfg, &ucfg, lanes, STUDY_LEN) {
            for byte in r.finish_cycles.iter().flat_map(|f| f.to_le_bytes()) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    digest
}

fn batch_kernel(c: &mut Criterion) {
    let specs = suite();
    let bufs: Vec<Arc<TraceBuffer>> = specs
        .iter()
        .map(|s| Arc::new(TraceBuffer::capture(&mut s.trace(), TRACE_LEN)))
        .collect();
    let combos = combo_indices(&specs);

    // Bit-identity across batch widths, checked once before timing.
    let reference = run_sweep(&bufs, &combos, 1);
    for b in [4usize, 16] {
        assert_eq!(
            run_sweep(&bufs, &combos, b),
            reference,
            "batched sweep diverged from scalar at B={b}"
        );
    }

    let study_bufs: Vec<Arc<TraceBuffer>> = specs
        .iter()
        .map(|s| Arc::new(TraceBuffer::capture(&mut s.trace(), STUDY_LEN)))
        .collect();
    let pairs = study_pairs(specs.len());
    let digest = run_study(&study_bufs, &pairs);
    assert_eq!(
        digest, STUDY_DIGEST,
        "study-shaped leg changed its results: digest {digest:#018x}"
    );

    let mut group = c.benchmark_group("batch_kernel");
    for batch in [1usize, 4, 16] {
        group.bench_function(format!("sweep16_2core_b{batch}"), |bench| {
            bench.iter(|| black_box(run_sweep(&bufs, &combos, batch)))
        });
    }
    group.bench_function(
        format!("study{}_2core_{STUDY_LEN}_b{STUDY_BATCH}", pairs.len()),
        |bench| bench.iter(|| black_box(run_study(&study_bufs, &pairs))),
    );
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = batch_kernel
}
criterion_main!(benches);
